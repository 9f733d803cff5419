package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/workload"
)

func apache1Campaign(par int, progress func(done, total int)) *Campaign {
	opts := []Option{WithParallelism(par)}
	if progress != nil {
		opts = append(opts, WithProgress(progress))
	}
	return NewCampaign(NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{}), opts...)
}

// TestCampaignParallelProgress exercises the serialized Progress contract
// under contention: the callback mutates shared state without its own
// locking (the race detector proves serialization), done increases
// strictly by one, and the final call is (total, total).
func TestCampaignParallelProgress(t *testing.T) {
	var calls []int
	var total int
	set, err := apache1Campaign(4, func(done, n int) {
		calls = append(calls, done)
		total = n
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != total || total != len(set.Runs) {
		t.Fatalf("%d progress calls, total %d, %d runs", len(calls), total, len(set.Runs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress call %d reported done=%d; counter must increase strictly by one", i, done)
		}
	}
}

// TestCampaignParallelFaithfulSkips checks the probe path through the
// pool: paper-faithful campaigns stay deterministic under parallelism,
// probes keep their catalog-order positions ahead of the fault list, and
// probes stay invisible to Progress.
func TestCampaignParallelFaithfulSkips(t *testing.T) {
	run := func(par int) (*SetResult, int) {
		progressCalls := 0
		c := NewCampaign(NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{}),
			WithFaultTypes(inject.ZeroBits),
			WithPaperFaithfulSkips(),
			WithParallelism(par),
			WithProgress(func(done, total int) { progressCalls++ }))
		set, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return set, progressCalls
	}
	seq, seqCalls := run(1)
	par, parCalls := run(6)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("paper-faithful campaign diverges under parallelism")
	}
	if seqCalls != parCalls {
		t.Fatalf("progress calls diverge: %d sequential, %d parallel", seqCalls, parCalls)
	}
	if probes := len(seq.Runs) - seqCalls; probes != seq.SkippedFns {
		t.Fatalf("%d probe runs invisible to progress, want %d", probes, seq.SkippedFns)
	}
}

// specRuns executes an explicit fault list as a campaign — the dts
// -config fault-list path — and returns its runs in spec order. A
// supervisor stop still hands back the partial runs with the cause.
func specRuns(r *Runner, specs []inject.FaultSpec, par int, opts ...Option) ([]RunResult, error) {
	opts = append([]Option{WithSpecs(specs), WithParallelism(par)}, opts...)
	set, err := NewCampaign(r, opts...).Run(context.Background())
	if set == nil {
		return nil, err
	}
	return set.Runs, err
}

// failingRunsDef is Apache1 whose calibration succeeds but whose every
// fault run fails to start its client with failure.
func failingRunsDef(failure error) workload.Definition {
	def := workload.NewApache1(workload.Standalone)
	spawn := def.SpawnClient
	var calls atomic.Int32
	def.SpawnClient = func(k *ntsim.Kernel) (*ntsim.Process, *workload.Report, error) {
		if calls.Add(1) == 1 {
			return spawn(k) // the calibration run, which Prepare runs first
		}
		return nil, nil, failure
	}
	return def
}

// TestSpecCampaignRunErrorsQuarantined: a run error is retried and then
// quarantined with its message, as a panic is, so a campaign whose every
// run fails still completes, with the same set at any worker count.
// Each entry carries its job's journal key, by which the journal is
// greppable.
func TestSpecCampaignRunErrorsQuarantined(t *testing.T) {
	failure := errors.New("client refused to start")
	specs := []inject.FaultSpec{
		{Function: "ReadFile", Param: 0, Invocation: 1, Type: inject.ZeroBits},
		{Function: "WriteFile", Param: 0, Invocation: 1, Type: inject.ZeroBits},
		{Function: "CloseHandle", Param: 0, Invocation: 1, Type: inject.ZeroBits},
		{Function: "CreateFileA", Param: 0, Invocation: 1, Type: inject.ZeroBits},
	}
	var first []byte
	for _, par := range []int{1, 4} {
		set, err := NewCampaign(NewRunner(failingRunsDef(failure), RunnerOptions{}),
			WithSpecs(specs), WithParallelism(par)).Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism %d: failing runs failed the campaign: %v", par, err)
		}
		if len(set.Quarantined) != len(specs) {
			t.Fatalf("parallelism %d: %d quarantined, want every one of %d", par, len(set.Quarantined), len(specs))
		}
		for i, q := range set.Quarantined {
			if q.Index != i || q.Key != specs[i].Key() || q.Reason != ReasonError ||
				q.Attempts != DefaultMaxAttempts || !strings.Contains(q.Message, failure.Error()) {
				t.Errorf("parallelism %d: quarantine %d = %+v", par, i, q)
			}
		}
		archive, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = archive
		} else if !bytes.Equal(archive, first) {
			t.Errorf("parallelism %d: set differs from the sequential one", par)
		}
	}
}

// TestPlanCacheReuse asserts the fault-plan memoization: two campaigns
// over the same activation set share one plan instance.
func TestPlanCacheReuse(t *testing.T) {
	activated := map[string]bool{"ReadFile": true, "WriteFile": true}
	types := inject.AllFaultTypes()
	a := planFor(activated, types, 1, false)
	b := planFor(map[string]bool{"WriteFile": true, "ReadFile": true}, types, 1, false)
	if a != b {
		t.Fatal("identical activation sets built distinct plans")
	}
	c := planFor(activated, types, 1, true)
	if a == c {
		t.Fatal("skip-mode change must not share a plan")
	}
	if a.faults == 0 || len(a.jobs) != a.faults {
		t.Fatalf("plan shape: %d jobs, %d faults", len(a.jobs), a.faults)
	}
}
