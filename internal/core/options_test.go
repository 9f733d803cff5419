package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// TestNewCampaignEquivalentToLiteral pins the migration contract: a
// campaign built with options is field-for-field the struct literal it
// replaces, so adopting the API changes no behavior.
func TestNewCampaignEquivalentToLiteral(t *testing.T) {
	runner := NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{})
	specs := []inject.FaultSpec{{Function: "ReadFile", Param: 0, Invocation: 1, Type: inject.ZeroBits}}
	progress := func(done, total int) {}

	got := NewCampaign(runner,
		WithParallelism(4),
		WithSupervision(SupervisorOptions{MaxAttempts: 2}),
		WithProgress(progress),
		WithSpecs(specs),
		WithFaultTypes(inject.ZeroBits),
		WithInvocation(2),
		WithPaperFaithfulSkips(),
		WithShards(3),
	)
	want := &Campaign{
		runner:             runner,
		types:              []inject.FaultType{inject.ZeroBits},
		invocation:         2,
		paperFaithfulSkips: true,
		parallelism:        4,
		policy:             SupervisorOptions{MaxAttempts: 2},
		specs:              specs,
		shards:             3,
	}
	// Functions don't compare; check presence, then blank them.
	if got.progress == nil {
		t.Fatal("WithProgress did not set the callback")
	}
	got.progress = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("options build:\n got %+v\nwant %+v", got, want)
	}
}

// TestWithTelemetryClonesRunner: enabling telemetry on one campaign must
// not flip it on for other campaigns sharing the runner.
func TestWithTelemetryClonesRunner(t *testing.T) {
	shared := NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{})
	c := NewCampaign(shared, WithTelemetry(telemetry.Options{Enabled: true, TraceCap: 7}))
	if c.Runner() == shared {
		t.Fatal("WithTelemetry must clone the runner")
	}
	if !c.Runner().Opts.Telemetry.Enabled || c.Runner().Opts.Telemetry.TraceCap != 7 {
		t.Fatalf("campaign runner telemetry = %+v", c.Runner().Opts.Telemetry)
	}
	if shared.Opts.Telemetry.Enabled {
		t.Fatal("shared runner's options were mutated")
	}
}

// TestRunContextCancelSupervised: cancelling the context stops the
// in-process pool between runs and degrades gracefully — a partial set
// comes back alongside ErrInterrupted, so a resume journal stays
// coherent. This is the dts SIGINT path for every campaign.
func TestRunContextCancelSupervised(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, err := NewCampaign(
		NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{}),
		WithParallelism(2),
		WithSupervision(SupervisorOptions{MaxAttempts: 1}),
		WithProgress(func(done, total int) {
			if done == 3 {
				cancel()
			}
		}),
	).Run(ctx)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error = %v, want ErrInterrupted", err)
	}
	if set == nil || !set.Partial {
		t.Fatalf("supervised cancellation must return the partial set, got %+v", set)
	}
	completed := 0
	for _, r := range set.Runs {
		if r.Injected || r.Skipped {
			completed++
		}
	}
	if completed == 0 || completed == len(set.Runs) {
		t.Fatalf("partial set has %d/%d completed runs; want a true prefix", completed, len(set.Runs))
	}
}

// TestExecuteAliasesRun keeps the deprecated entry point honest: Execute
// and Run(Background) produce identical sets.
func TestExecuteAliasesRun(t *testing.T) {
	specs := []inject.FaultSpec{
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "CloseHandle", Param: 0, Invocation: 1, Type: inject.OneBits},
	}
	build := func() *Campaign {
		return NewCampaign(NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{}),
			WithSpecs(specs))
	}
	viaExecute, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaExecute, viaRun) {
		t.Fatal("Execute and Run(Background) diverge")
	}
}
