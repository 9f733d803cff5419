package replay

import (
	"sync"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/middleware"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/workload"
)

// Oracle is the divergence oracle: per planned job it decides whether
// the recorded evidence *proves* the substrate swap cannot change the
// outcome, and elides the run when it does. Two proofs are implemented,
// both resting on the engine's determinism guarantee (identical inputs
// yield byte-identical records):
//
//  1. Fault-free synthesis. A dormant fault (core.Dormant: a catalog
//     function the target's own calibration run never calls, on a
//     single host and node 0) can never arm; the run *is* the
//     calibration run carrying a dormant fault spec. The record is
//     synthesized from the target calibration result, so it is exact
//     under the target substrate even when the source ran under a
//     different middleware family with different virtual timings (the
//     cross-family case, where no recorded byte can be reused). The
//     runner copies dormant runs by the same rule (core.Dormant), so
//     with elision on no dormant job ever reaches it.
//
//  2. Verbatim copy, watchd v2 <-> v3 only. The two generations differ
//     solely in how they react to a service death; their supervision
//     paths are virtual-time identical while the service stays up. A
//     source record whose middleware demonstrably never acted — no
//     server crash, no restarts, no retries, not quarantined, not a
//     harness hang, and quiet middleware touchpoints in the recorded
//     trace when one exists — is bit-exact under the other generation
//     and is adopted verbatim. Disqualified by any topology change.
//
// Everything else re-executes from the boot-prefix snapshot.
type Oracle struct {
	src            *Source
	source, target middleware.Spec
	clusterNodes   int
	clusterChanged bool
	noElide        bool

	mu    sync.Mutex
	stats Stats
}

// Stats extends the engine's replay counters with the per-proof
// breakdown.
type Stats struct {
	core.ReplayStats
	FaultFree int // elided by fault-free synthesis
	Copied    int // elided by verbatim copy
}

// Stats returns the elision decisions of the last Resolve.
func (o *Oracle) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// Resolve implements core.ReplaySource.
func (o *Oracle) Resolve(p *core.Prepared) ([]*core.RunResult, error) {
	resolved := make([]*core.RunResult, len(p.Jobs))
	var st Stats
	st.Total = len(p.Jobs)
	if !o.noElide {
		copyOK := o.copySound()
		for i, job := range p.Jobs {
			if r := o.faultFree(job.Spec, p); r != nil {
				resolved[i] = r
				st.FaultFree++
				continue
			}
			if copyOK {
				if sr, ok := o.src.Runs[job.Key()]; ok && quiet(sr) {
					r := *sr.Result
					resolved[i] = &r
					st.Copied++
				}
			}
		}
	}
	st.Elided = st.FaultFree + st.Copied
	st.Executed = st.Total - st.Elided
	o.mu.Lock()
	o.stats = st
	o.mu.Unlock()
	return resolved, nil
}

// faultFree returns the synthesized record when the spec provably never
// arms under the target (core.Dormant), nil otherwise.
func (o *Oracle) faultFree(spec inject.FaultSpec, p *core.Prepared) *core.RunResult {
	if !core.Dormant(spec, o.clusterNodes, p.Activated) {
		return nil
	}
	r := *p.Calib
	r.Telemetry = nil
	r.Fault = spec
	r.Activated, r.Injected, r.Skipped = false, false, false
	return &r
}

// copySound reports whether verbatim copy is admissible for this
// source/target pair at all.
func (o *Oracle) copySound() bool {
	if o.clusterChanged || o.clusterNodes > 1 {
		return false
	}
	if o.source.Supervision != workload.Watchd || o.target.Supervision != workload.Watchd {
		return false
	}
	sameReaction := func(v watchd.Version) bool { return v == watchd.V2 || v == watchd.V3 }
	return sameReaction(o.source.Version()) && sameReaction(o.target.Version())
}

// quiet reports whether the recorded run shows zero middleware
// reaction, cross-checking the trace touchpoints when one was recorded.
func quiet(sr SourceRun) bool {
	r := sr.Result
	if r.ServerCrash || r.Restarts != 0 || r.Retries != 0 || r.Quarantined {
		return false
	}
	if r.Outcome == core.HarnessHang {
		return false
	}
	if sr.HasTrace && !sr.Touch.Quiet() {
		return false
	}
	return true
}
