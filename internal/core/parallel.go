package core

// Parallel campaign engine. The paper's DTS ran one fault-injection run
// at a time on a single NT box; here every run builds its own fresh
// ntsim.Kernel and shares no mutable state, so a campaign is an
// embarrassingly parallel job list. The engine below executes that list
// on a bounded worker pool while keeping the results byte-identical to a
// sequential sweep: each run commits into the campaign's Ledger at its
// fault-list position, and the Progress callback is invoked serially
// with a monotonic done-counter.

import (
	"context"
	"fmt"
	"strings"

	"ntdts/internal/inject"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/workpool"
)

// PlanJob is one schedulable run of a campaign: a real fault from the
// generated list, or a paper-faithful skip probe for an unactivated
// function. Exported so a ShardExecutor can carry job lists across the
// process boundary.
type PlanJob struct {
	Spec  inject.FaultSpec
	Probe bool
}

// Key renders the job's journal/wire identity: the FaultSpec key, with
// probe jobs marked by a "/probe" suffix.
func (j PlanJob) Key() string {
	k := j.Spec.Key()
	if j.Probe {
		k += "/probe"
	}
	return k
}

// ParseJobKey inverts PlanJob.Key.
func ParseJobKey(key string) (PlanJob, error) {
	j := PlanJob{}
	if rest, ok := strings.CutSuffix(key, "/probe"); ok {
		j.Probe = true
		key = rest
	}
	spec, err := inject.ParseKey(key)
	if err != nil {
		return PlanJob{}, err
	}
	j.Spec = spec
	return j, nil
}

// faultPlan is the prepared run list for one (activation set, fault
// types, invocation, skip mode) combination, plus the skip accounting
// the catalog walk produces.
type faultPlan struct {
	jobs          []PlanJob
	faults        int // non-probe jobs (the Progress total)
	skippedFns    int
	skippedFaults int
}

// buildPlan walks the export catalog in order and lays out the campaign's
// job list exactly as the sequential engine executed it: skip probes (in
// catalog order) first, then the generated fault list (catalog order ×
// parameter × type).
func buildPlan(activated map[string]bool, types []inject.FaultType, invocation int, faithfulSkips bool) *faultPlan {
	p := &faultPlan{}
	var probes, specs []PlanJob
	for _, entry := range win32.Catalog() {
		if entry.Params == 0 {
			continue
		}
		if !activated[entry.Name] {
			if faithfulSkips {
				// The paper burned one run on the first fault of the
				// function and skipped the rest when it did not activate.
				probes = append(probes, PlanJob{
					Spec: inject.FaultSpec{
						Function: entry.Name, Param: 0,
						Invocation: invocation, Type: types[0],
					},
					Probe: true,
				})
			}
			p.skippedFns++
			p.skippedFaults += entry.Params * len(types)
			continue
		}
		for param := 0; param < entry.Params; param++ {
			for _, t := range types {
				specs = append(specs, PlanJob{Spec: inject.FaultSpec{
					Function: entry.Name, Param: param, Invocation: invocation, Type: t,
				}})
			}
		}
	}
	p.jobs = append(probes, specs...)
	p.faults = len(specs)
	return p
}

// executeJobs runs the ledger's uncommitted jobs on the shared worker
// pool, each under the attempt policy (SupervisorOptions.run), which
// commits it to l at its job index, so results are in job order
// regardless of completion order or worker count. Every pool goroutine
// runs on r: a Runner holds no per-run state, only the caches its runs
// share. A run never fails the campaign — it commits or is quarantined
// — so the only errors are the ledger's (a journal write); the
// lowest-indexed one wins (the workpool.Run contract).
//
// Every claim checks ctx first: once it is done, the claim latches the
// ledger's stop (ErrInterrupted), as the quarantine budget does, so no
// run starts after cancellation. In-flight runs finish (every run is
// bounded in virtual time) and the stop cause is returned; the
// committed results stay in the ledger.
func executeJobs(ctx context.Context, l *Ledger, r *Runner, parallelism int, policy SupervisorOptions) error {
	pending := l.Pending()
	if len(pending) == 0 {
		return nil
	}
	err := workpool.Run(context.WithoutCancel(ctx), len(pending), parallelism, func(k int) error {
		if ctx.Err() != nil {
			l.Stop(ErrInterrupted)
		}
		if l.StopCause() != nil {
			return nil // unexecuted slots stay zero-valued
		}
		return policy.run(ctx, l, r, pending[k])
	})
	if err != nil {
		return err
	}
	return l.StopCause()
}

// ExecuteChunk runs a fleet worker's chunk, the jobs its plan line names
// by key (PlanJob.Key), on the campaign executor: the pool at the given
// width, every job under policy (zero fields take their defaults), each
// commit into a ledger over the chunk whose journal is j, so every run
// and quarantine leaves as a record at its chunk position. A bad key or
// a journal write error stops the chunk and returns with the position
// of the job that hit it: the lowest one, as a sequential loop would.
func ExecuteChunk(r *Runner, keys []string, parallelism int, policy SupervisorOptions, j Journal) (int, error) {
	jobs := make([]PlanJob, len(keys))
	for i, key := range keys {
		var err error
		if jobs[i], err = ParseJobKey(key); err != nil {
			return i, fmt.Errorf("plan job %d: %w", i, err)
		}
	}
	l := newLedger(jobs)
	l.jw, l.tel = j, r.Opts.Telemetry
	if err := executeJobs(context.Background(), l, r, parallelism, policy.withDefaults()); err != nil {
		// Every job below the failing one committed: the pool claims in
		// order and waits for its in-flight calls.
		return l.Pending()[0], err
	}
	return 0, nil
}
