package core

// Dormant faults. A catalog fault whose function the target never calls
// can never arm, so its run is the fault-free run carrying a dormant
// spec: the paper's skip rule, and the replay oracle's fault-free
// synthesis. A runner therefore simulates the first such run it meets
// and answers every later one with a relabelled copy of it.

import (
	"slices"
	"sync"

	"ntdts/internal/inject"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
)

// Dormant reports whether spec provably never arms on a run over nodes
// cluster nodes whose target calls exactly the functions in activated:
// a single-host, node-0 fault on a catalog function outside that set.
// Cluster scenario pseudo-faults fire on wall triggers whatever the
// target calls, and unknown names prove nothing, so neither is dormant.
// The runner's template copies and the replay oracle's fault-free
// synthesis both rest on this one rule.
func Dormant(spec inject.FaultSpec, nodes int, activated map[string]bool) bool {
	if nodes > 1 || spec.Node != 0 || activated[spec.Function] {
		return false
	}
	_, ok := win32.CatalogLookup(spec.Function)
	return ok
}

// dormantCache holds a runner's template, shared by every Clone like
// prefixCache. The template is a private deep copy of the first executed
// run whose fault its target never reached, with that run's activation
// set, which is the fault-free one because the fault never fired. It
// serves the options it was recorded under, so Opts must not change
// after the first run either, except FreshBoot and Trace, which turn
// templates off and are checked on every run. WithTelemetry's clone
// gets a cache of its own.
type dormantCache struct {
	mu sync.Mutex
	t  *dormantTemplate
}

type dormantTemplate struct {
	res       *RunResult
	activated map[string]bool
}

// usesTemplate reports whether spec's run may be served by, or become,
// the template. The calibration run, a zero-literal Runner, a kernel
// Trace sink and FreshBoot, which stays the full-execution oracle, all
// execute.
func (r *Runner) usesTemplate(spec *inject.FaultSpec) bool {
	return spec != nil && r.dormant != nil && !r.Opts.FreshBoot && r.Opts.Trace == nil
}

func (c *dormantCache) get() *dormantTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// offer makes res the template unless one exists. The template is a
// deep copy because callers mutate what Run returns: the ledger marks
// probes Skipped, and the supervisor sets Retries and emits into the
// recorder.
func (c *dormantCache) offer(res *RunResult, activated map[string]bool) {
	t := &dormantTemplate{res: copyDormant(res, res.Fault), activated: activated}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t == nil {
		c.t = t
	}
}

// copyDormant returns a dormant run's record as the record of spec: its
// own RunResult, Classes slice and recorder, with Fault and the one
// fault-armed event naming spec. Nothing else in a dormant run depends
// on its spec, so the ring holds the same events at the same positions,
// even when it wrapped and dropped the armed event.
func copyDormant(res *RunResult, spec inject.FaultSpec) *RunResult {
	c := *res
	c.Fault = spec
	c.Classes = slices.Clone(res.Classes)
	if res.Telemetry != nil {
		c.Telemetry = res.Telemetry.Clone()
		name, a, b := spec.ArmedEvent()
		c.Telemetry.Relabel(telemetry.KindFaultArmed, name, a, b)
	}
	return &c
}
