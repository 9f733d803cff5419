package core

// Parallel campaign engine. The paper's DTS ran one fault-injection run
// at a time on a single NT box; here every run builds its own fresh
// ntsim.Kernel and shares no mutable state, so a campaign is an
// embarrassingly parallel job list. The engine below executes that list
// on a bounded worker pool while keeping the results byte-identical to a
// sequential sweep: each run writes into a pre-sized slice at its
// fault-list position, and the Progress callback is invoked serially
// with a monotonic done-counter.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

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
// the catalog walk produces. Plans are immutable once built.
type faultPlan struct {
	jobs          []PlanJob
	faults        int // non-probe jobs (the Progress total)
	skippedFns    int
	skippedFaults int
}

// planCache memoizes fault plans per process: the 681-entry catalog walk
// and spec-list construction run once per (types, invocation, skip mode,
// activation set) rather than once per campaign. Campaigns for the same
// workload/supervision pair — benchmarks, repeated experiments, Figure 5
// version sweeps — reuse the cached plan.
var planCache sync.Map // string -> *faultPlan

// planFor returns the (possibly cached) fault plan for an activation set.
func planFor(activated map[string]bool, types []inject.FaultType, invocation int, faithfulSkips bool) *faultPlan {
	key := planKey(activated, types, invocation, faithfulSkips)
	if p, ok := planCache.Load(key); ok {
		return p.(*faultPlan)
	}
	p := buildPlan(activated, types, invocation, faithfulSkips)
	actual, _ := planCache.LoadOrStore(key, p)
	return actual.(*faultPlan)
}

// planKey canonicalizes the plan inputs. The activation set is small
// (tens of functions) and deterministic per workload, so sorting it is
// cheap relative to one simulation run.
func planKey(activated map[string]bool, types []inject.FaultType, invocation int, faithfulSkips bool) string {
	fns := make([]string, 0, len(activated))
	for fn, on := range activated {
		if on {
			fns = append(fns, fn)
		}
	}
	sort.Strings(fns)
	var b strings.Builder
	b.WriteString(strconv.Itoa(invocation))
	b.WriteByte('/')
	b.WriteString(strconv.FormatBool(faithfulSkips))
	for _, t := range types {
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(int(t)))
	}
	for _, fn := range fns {
		b.WriteByte('|')
		b.WriteString(fn)
	}
	return b.String()
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

// FinishJob is the per-job decision every executor applies to a run's
// outcome — the in-process pool, a fleet worker and the fleet's local
// drain alike: a run error names its job (probe or run, spec, and the
// fingerprint — the journal key's hash, so a failed run is greppable in
// the journal by the same identifier), and a probe's result is marked
// Skipped.
func FinishJob(job PlanJob, res *RunResult, err error) (*RunResult, error) {
	if err != nil {
		spec := job.Spec
		if job.Probe {
			return nil, fmt.Errorf("skip probe %v [%s]: %w", spec, spec.Fingerprint(), err)
		}
		return nil, fmt.Errorf("run %v [%s]: %w", spec, spec.Fingerprint(), err)
	}
	if job.Probe {
		res.Skipped = true
	}
	return res, nil
}

// executeJobs runs the job list on the shared worker pool and returns
// the results in job order, regardless of completion order or worker
// count. Each pool goroutine owns its own Runner clone; failures follow
// the workpool.Run contract (the lowest-indexed error wins).
//
// With a non-nil Supervisor every run routes through its resilience
// layer (watchdog, panic quarantine, retries, journal, replay-on-resume)
// and a supervisor stop (interrupt, quarantine budget) returns the
// partial results alongside the stop cause.
//
// Context cancellation stops the pool between runs (in-flight runs
// finish; every run is bounded in virtual time). Supervised campaigns
// convert the cancellation into a supervisor stop, so the caller gets
// partial results with ErrInterrupted — the same contract as a signal
// interrupt; unsupervised campaigns return ErrInterrupted alone.
func executeJobs(ctx context.Context, base *Runner, jobs []PlanJob, parallelism int, progressTotal int, progress func(done, total int), sup *Supervisor) ([]RunResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	poolCtx := ctx
	if sup != nil {
		// Route cancellation through the supervisor's stop latch so the
		// partial-results path (journal flush, resume hint) is identical
		// for a canceled context and a direct RequestStop. The pool itself
		// keeps claiming; claims after the stop return at once.
		stopWatch := context.AfterFunc(ctx, func() { sup.RequestStop(ErrInterrupted) })
		defer stopWatch()
		poolCtx = context.WithoutCancel(ctx)
	}

	results := make([]RunResult, len(jobs))
	var (
		// done and the user callback live under one mutex so the
		// callback observes a strictly increasing counter and its final
		// invocation is (total, total) — the same contract callers relied
		// on when runs completed in order.
		progressMu sync.Mutex
		done       int
	)
	err := workpool.Run(poolCtx, len(jobs), parallelism, func() func(int) error {
		runner := base.Clone()
		return func(i int) error {
			if sup != nil && sup.stopped() {
				return nil // unexecuted slots stay zero-valued
			}
			job := jobs[i]
			spec := job.Spec // plans are shared; never hand out interior pointers
			var (
				res *RunResult
				err error
			)
			if sup != nil {
				res, err = sup.execute(ctx, runner, i, job)
			} else {
				res, err = runner.Run(&spec)
			}
			if res, err = FinishJob(job, res, err); err != nil {
				return err
			}
			results[i] = *res
			if progress != nil && !job.Probe {
				progressMu.Lock()
				done++
				progress(done, progressTotal)
				progressMu.Unlock()
			}
			return nil
		}
	})
	if err != nil && err != poolCtx.Err() {
		return nil, err // a run error; Run returns a cancellation bare
	}
	if sup != nil {
		if cause := sup.stopCause(); cause != nil {
			// Graceful stop (interrupt or quarantine budget): hand back
			// whatever the workers finished with the cause.
			return results, cause
		}
	}
	if ctx.Err() != nil {
		return nil, ErrInterrupted
	}
	return results, nil
}
