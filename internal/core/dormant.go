package core

// Dormant faults. A catalog fault whose function the target never calls
// on the fault's node can never arm, so its run is the fault-free run
// carrying a dormant spec: the paper's skip rule, and the replay
// oracle's fault-free synthesis. A runner therefore simulates the first
// such run it meets on each node and answers every later one on that
// node with a relabelled copy of it.

import (
	"slices"
	"sync"

	"ntdts/internal/inject"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
)

// Dormant reports whether spec provably never arms on a run whose
// target, on spec's node, calls exactly the functions in activated: a
// catalog fault on a function outside that set. A superset of that
// node's set, such as the union over every node, is sound too, only
// weaker. Cluster scenario pseudo-faults fire on wall triggers whatever
// the target calls, and unknown names prove nothing, so neither is
// dormant. The runner's template copies and the replay oracle's
// fault-free synthesis both rest on this one rule.
func Dormant(spec inject.FaultSpec, activated map[string]bool) bool {
	if activated[spec.Function] {
		return false
	}
	_, ok := win32.CatalogLookup(spec.Function)
	return ok
}

// dormantCache holds a runner's templates, one per faulted node, shared
// by every Clone like prefixCache. A node's template is a private deep
// copy of the first executed run whose fault the target on that node
// never reached, with that node's activation set, which is the
// fault-free one because the fault never fired. A template serves only
// its own node: the nodes of a cluster call different functions, and
// the armed event sits where that node's injector emitted it. A node
// the topology lacks never gets one, because its runs fail. Templates
// serve the options they were recorded under, so Opts must not change
// after the first run either, except FreshBoot, which turns templates
// off and is checked on every run. WithTelemetry's clone gets a cache
// of its own.
type dormantCache struct {
	mu sync.Mutex
	t  map[int]*dormantTemplate // by FaultSpec.Node
}

type dormantTemplate struct {
	res       *RunResult
	activated map[string]bool
}

// usesTemplate reports whether spec's run may be served by, or become,
// its node's template. The calibration run and FreshBoot, which stays
// the full-execution oracle, both execute.
func (r *Runner) usesTemplate(spec *inject.FaultSpec) bool {
	return spec != nil && !r.Opts.FreshBoot
}

func (c *dormantCache) get(node int) *dormantTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t[node]
}

// offer makes res its node's template unless that node has one. The
// template is a deep copy because callers mutate what Run returns: the
// ledger marks probes Skipped, and the supervisor sets Retries and
// emits into the recorder. Its recorder keeps the events encoded
// (telemetry.DecodeRecorder of its snapshot), so that each copy's
// Relabel patches the one fault-armed event over bytes every copy
// shares, and a copy's snapshot is written from those bytes.
func (c *dormantCache) offer(res *RunResult, activated map[string]bool) {
	t := &dormantTemplate{res: copyDormant(res, res.Fault), activated: activated}
	if rec := t.res.Telemetry; rec != nil {
		// A snapshot always decodes; on the impossible error the
		// template keeps its ring.
		if kept, err := telemetry.DecodeRecorder(rec.AppendSnapshotJSON(nil)); err == nil {
			t.res.Telemetry = kept
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t == nil {
		c.t = make(map[int]*dormantTemplate)
	}
	if c.t[res.Fault.Node] == nil {
		c.t[res.Fault.Node] = t
	}
}

// copyDormant returns a dormant run's record as the record of spec: its
// own RunResult, Classes and Nodes slices and recorder, with Fault and
// the one fault-armed event naming spec. Nothing else in a dormant run
// depends on its spec, so the ring holds the same events at the same
// positions, even when it wrapped and dropped the armed event. A
// template's recorder keeps its events encoded, and the copy's shares
// those bytes under a patch of the armed event (Recorder.Relabel).
func copyDormant(res *RunResult, spec inject.FaultSpec) *RunResult {
	c := *res
	c.Fault = spec
	c.Classes = slices.Clone(res.Classes)
	c.Nodes = slices.Clone(res.Nodes)
	if res.Telemetry != nil {
		c.Telemetry = res.Telemetry.Clone()
		name, a, b := spec.ArmedEvent()
		c.Telemetry.Relabel(telemetry.KindFaultArmed, name, a, b)
	}
	return &c
}
