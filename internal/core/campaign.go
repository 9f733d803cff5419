package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/stats"
	"ntdts/internal/telemetry"
)

// SetResult is the outcome of one workload set: every fault of the fault
// list injected into one workload (paper Figure 1's middle loop).
type SetResult struct {
	Workload      string      `json:"workload"`
	Supervision   string      `json:"supervision"`
	WatchdVersion int         `json:"watchdVersion,omitempty"`
	ActivatedFns  int         `json:"activatedFns"` // Table 1 census
	FaultFreeSec  float64     `json:"faultFreeSec"` // calibration response time
	Runs          []RunResult `json:"runs"`         // injected faults only
	SkippedFns    int         `json:"skippedFns"`   // unactivated functions
	SkippedFaults int         `json:"skippedFaults"`

	// Quarantined lists the runs the campaign supervisor gave up on
	// (empty when every run committed); Partial marks a set cut short by
	// an interrupt or the quarantine budget — its Runs slice still spans
	// the full plan, with zero-valued entries for runs never executed.
	Quarantined []QuarantineEntry `json:"quarantined,omitempty"`
	Partial     bool              `json:"partial,omitempty"`

	// Telemetry holds the per-run collectors in deterministic order —
	// the calibration run first, then every run at its fault-list
	// position — when the campaign executed with telemetry enabled.
	// Merged exports (JSONL/CSV traces, metrics) are byte-identical
	// across Parallelism settings. Excluded from the JSON archive.
	Telemetry *telemetry.Set `json:"-"`

	// Dispatch describes how the fleet executor behaved when the
	// campaign ran sharded (nil otherwise). Excluded from the JSON
	// archive so archives stay byte-identical at any fleet shape.
	Dispatch *DispatchStats `json:"-"`
}

// Injected returns the number of faults that actually fired.
func (s *SetResult) Injected() int {
	n := 0
	for _, r := range s.Runs {
		if r.Injected {
			n++
		}
	}
	return n
}

// Distribution is the five-outcome breakdown over injected faults —
// the bars of Figures 2, 3 and 5.
type Distribution struct {
	Total  int                `json:"total"`
	Counts map[string]int     `json:"counts"`
	Pct    map[string]float64 `json:"pct"`
}

// Distribution computes the outcome distribution of a set.
func (s *SetResult) Distribution() Distribution {
	d := Distribution{
		Counts: make(map[string]int, 5),
		Pct:    make(map[string]float64, 5),
	}
	for _, r := range s.Runs {
		if !r.Injected {
			continue
		}
		d.Counts[r.Outcome.String()]++
		d.Total++
	}
	for _, o := range AllOutcomes() {
		d.Pct[o.String()] = stats.Percent(d.Counts[o.String()], d.Total)
	}
	return d
}

// FailurePct is the headline failure percentage (unity minus coverage).
func (s *SetResult) FailurePct() float64 {
	return s.Distribution().Pct[Failure.String()]
}

// OutcomePct returns the percentage of one outcome.
func (s *SetResult) OutcomePct(o Outcome) float64 {
	return s.Distribution().Pct[o.String()]
}

// ResponseTimes returns the response-time sample for one outcome class,
// with failures optionally split by whether any reply arrived (Figure 4
// omits no-reply failures — their response time is unbounded).
func (s *SetResult) ResponseTimes(o Outcome, wrongReplyOnly bool) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if !r.Injected || r.Outcome != o || !r.Completed {
			continue
		}
		if o == Failure && wrongReplyOnly && !r.GotResponse {
			continue
		}
		xs = append(xs, r.ResponseSec)
	}
	return xs
}

// Campaign executes the full fault list against one workload.
//
// Construct campaigns with NewCampaign and functional options; the
// fields are unexported (the PR 5 deprecation of the struct-literal
// form has run its course) and external packages reach the few values
// they need through accessors.
type Campaign struct {
	runner *Runner
	// types is the corruption set (defaults to the paper's three).
	types []inject.FaultType
	// invocation selects which invocation of each function to inject
	// (default 1, the paper's choice; the paper notes that injecting
	// further invocations "produced similar results").
	invocation int
	// paperFaithfulSkips runs one probe per unactivated function before
	// skipping its remaining faults, exactly as the paper's tool did,
	// instead of applying the skip from the calibration run.
	paperFaithfulSkips bool
	// parallelism is the number of workers executing runs concurrently
	// (0 defaults to runtime.GOMAXPROCS(0); 1 is strictly sequential).
	// Every run builds its own isolated kernel and results land at their
	// fault-list position, so any worker count yields a SetResult
	// byte-identical to the sequential sweep.
	parallelism int
	// progress, when non-nil, receives (done, total) after every run.
	// Invocations are serialized and done increases strictly by one,
	// regardless of parallelism.
	progress func(done, total int)
	// policy is the attempt policy every run runs under, defaults filled
	// in: wall-clock watchdog, panic quarantine, bounded retries, the
	// quarantine budget.
	policy SupervisorOptions
	// journal, when non-nil, records every committed run; resume, when
	// non-nil, is the replayed journal whose runs are adopted instead of
	// re-executed (see WithJournal).
	journal *journal.Writer
	resume  *journal.Replayed
	// specs, when non-empty, replaces the generated catalog sweep with an
	// explicit fault list (the dts fault-list-file path).
	specs []inject.FaultSpec
	// shardExec, when non-nil, fans the job list out over worker
	// processes instead of the in-process pool; results merge
	// byte-identical to an unsharded run.
	shardExec ShardExecutor
	// shards is the fleet size an executor falls back to when it is not
	// sized itself.
	shards int
	// replay, when non-nil, resolves jobs from a recorded source
	// campaign before execution (see WithReplay).
	replay ReplaySource
}

// Runner returns the campaign's workload runner.
func (c *Campaign) Runner() *Runner { return c.runner }

// Shards returns the WithShards fleet size (0 when unset).
func (c *Campaign) Shards() int { return c.shards }

// Supervision returns the campaign's attempt policy, defaults filled in.
func (c *Campaign) Supervision() SupervisorOptions { return c.policy }

// Journal returns the campaign's journal (nil when not journaling).
func (c *Campaign) Journal() *journal.Writer { return c.journal }

// Prepared is a campaign after calibration and planning, ready to
// execute: the frozen job list, the Ledger its runs commit to, and
// everything the SetResult is built from. The coordinator/worker split
// lives on this boundary — a ShardExecutor dispatches the ledger's
// pending jobs and commits their results to it.
type Prepared struct {
	c      *Campaign
	ledger *Ledger
	// Calib is the fault-free calibration result.
	Calib *RunResult
	// Jobs is the campaign's ordered job list; results land at the
	// matching index.
	Jobs []PlanJob
	// Faults counts non-probe jobs (the progress total).
	Faults int
	// Activated is the calibration run's activation census: the set of
	// win32 functions the fault-free workload actually called. The
	// replay oracle consults it to prove a fault can never arm.
	Activated map[string]bool
	// SkippedFns and SkippedFaults carry the catalog-walk skip census
	// (zero for explicit spec lists).
	SkippedFns    int
	SkippedFaults int
}

// Ledger returns the ledger the campaign's runs commit to (nil until
// Campaign.Run opens it).
func (p *Prepared) Ledger() *Ledger { return p.ledger }

// Prepare runs the fault-free calibration pass and lays out the job
// list: one run per (activated function × parameter × fault type) for a
// catalog campaign, or the explicit Specs list verbatim. The skip rule
// is the paper's, applied eagerly from the calibration run. Every listed
// fault is checked against the runner's topology first, so a fault the
// topology cannot host fails the campaign before its first run; a
// catalog plan holds only node-0 catalog faults, which every topology
// the calibration run accepts can host.
func (c *Campaign) Prepare() (*Prepared, error) {
	for i := range c.specs {
		if _, err := c.runner.Opts.Cluster.checkFault(&c.specs[i]); err != nil {
			return nil, fmt.Errorf("fault list entry %d: %w", i+1, err)
		}
	}
	types := c.types
	if len(types) == 0 {
		types = inject.AllFaultTypes()
	}
	invocation := c.invocation
	if invocation == 0 {
		invocation = 1
	}
	activated, calib, err := c.runner.ActivationScan()
	if err != nil {
		return nil, fmt.Errorf("activation scan: %w", err)
	}
	p := &Prepared{c: c, Calib: calib, Activated: activated}
	if len(c.specs) > 0 {
		jobs := make([]PlanJob, len(c.specs))
		for i, s := range c.specs {
			jobs[i] = PlanJob{Spec: s}
		}
		p.Jobs, p.Faults = jobs, len(jobs)
		return p, nil
	}
	if calib.Outcome != NormalSuccess {
		return nil, fmt.Errorf("calibration run did not succeed: %v", calib.Outcome)
	}
	// The fault list is a pure function of the activation set (plus the
	// corruption types and skip mode), so the catalog walk is memoized
	// per process and the job list executes on the worker pool.
	plan := planFor(activated, types, invocation, c.paperFaithfulSkips)
	p.Jobs, p.Faults = plan.jobs, plan.faults
	p.SkippedFns, p.SkippedFaults = plan.skippedFns, plan.skippedFaults
	return p, nil
}

// assemble builds the SetResult from the executed (possibly partial)
// run list. A stop (interrupt, quarantine budget) is graceful
// degradation: the partial set returns alongside the cause so the
// caller can report what finished; any other error voids the set.
func (p *Prepared) assemble(runs []RunResult, runErr error) (*SetResult, error) {
	c := p.c
	var budget *QuarantineBudgetError
	if runErr != nil && !errors.Is(runErr, ErrInterrupted) && !errors.As(runErr, &budget) {
		return nil, runErr
	}
	set := &SetResult{
		Workload:      c.runner.Def.Name,
		Supervision:   c.runner.Def.Supervision.String(),
		ActivatedFns:  p.Calib.ActivatedFns,
		FaultFreeSec:  p.Calib.ResponseSec,
		Runs:          runs,
		SkippedFns:    p.SkippedFns,
		SkippedFaults: p.SkippedFaults,
		Quarantined:   p.ledger.quarantined(),
		Partial:       runErr != nil,
	}
	if c.runner.Def.Supervision.String() == "watchd" {
		set.WatchdVersion = int(c.runner.Opts.WatchdVersion)
	}
	if c.runner.Opts.Telemetry.Enabled {
		set.Telemetry = CollectTelemetry(p.Calib, runs)
	}
	return set, runErr
}

// Run executes the campaign: Prepare, then open the ledger (adopting a
// resumed journal's runs and a replay source's resolved ones), then run
// the ledger's uncommitted jobs on the in-process worker pool — or, with
// WithShardExecutor, fanned out across worker processes — then build
// the SetResult. Cancel ctx to stop between runs: the campaign returns
// its partial set with ErrInterrupted.
func (c *Campaign) Run(ctx context.Context) (*SetResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	exec := c.shardExec
	p, err := c.Prepare()
	if err != nil {
		return nil, err
	}
	l, err := c.ledgerFor(p)
	if err != nil {
		return nil, err
	}
	if exec == nil {
		runErr := executeJobs(ctx, l, c.runner, c.parallelism, c.policy)
		return p.assemble(l.Results(), runErr)
	}
	runs, runErr := exec.ExecuteShards(ctx, c, p)
	set, err := p.assemble(runs, runErr)
	if dr, ok := exec.(DispatchReporter); ok && set != nil {
		set.Dispatch = dr.DispatchStats()
	}
	return set, err
}

// ReplaySource resolves campaign jobs from a recorded source campaign.
// Resolve returns one entry per job in p.Jobs: a non-nil RunResult for
// every run the source proves cannot diverge under this campaign's
// substrate (the run is elided — its record is adopted into the ledger
// verbatim), nil for every run that must re-execute. internal/replay
// provides the divergence oracle.
type ReplaySource interface {
	Resolve(p *Prepared) ([]*RunResult, error)
}

// CollectTelemetry assembles the deterministic telemetry set for a
// campaign: the calibration run (when present) at index 0, then each
// run's collector at its fault-list position. Runs without a collector
// occupy their index with a nil entry so numbering is stable.
func CollectTelemetry(calib *RunResult, runs []RunResult) *telemetry.Set {
	set := telemetry.NewSet()
	if calib != nil {
		set.Append(calib.Telemetry)
	}
	for i := range runs {
		set.Append(runs[i].Telemetry)
	}
	return set
}

// Experiment is a series of workload sets (paper Figure 1's outer loop).
type Experiment struct {
	Sets []*SetResult `json:"sets"`
}

// Find returns the set for a workload/supervision pair.
func (e *Experiment) Find(workload, supervision string) (*SetResult, bool) {
	for _, s := range e.Sets {
		if s.Workload == workload && s.Supervision == supervision {
			return s, true
		}
	}
	return nil, false
}

// Workloads lists the distinct workload names in first-seen order.
func (e *Experiment) Workloads() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range e.Sets {
		if !seen[s.Workload] {
			seen[s.Workload] = true
			out = append(out, s.Workload)
		}
	}
	return out
}

// CommonInjected returns, for two sets, the run pairs whose fault specs
// were injected in both — Table 2's "counting only common faults" basis.
func CommonInjected(a, b *SetResult) (aRuns, bRuns []RunResult) {
	key := func(f inject.FaultSpec) string { return f.Key() }
	bByKey := make(map[string]RunResult, len(b.Runs))
	for _, r := range b.Runs {
		if r.Injected {
			bByKey[key(r.Fault)] = r
		}
	}
	var keys []string
	aByKey := make(map[string]RunResult, len(a.Runs))
	for _, r := range a.Runs {
		if !r.Injected {
			continue
		}
		k := key(r.Fault)
		if _, ok := bByKey[k]; ok {
			aByKey[k] = r
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		aRuns = append(aRuns, aByKey[k])
		bRuns = append(bRuns, bByKey[k])
	}
	return aRuns, bRuns
}
