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

// TestWithTelemetryClonesRunner: an option that changes the runner's
// options (telemetry on, fresh boot) must clone it, never flip the
// change on for other campaigns sharing the runner.
func TestWithTelemetryClonesRunner(t *testing.T) {
	for _, c := range []struct {
		name    string
		opt     Option
		changed func(o RunnerOptions) bool
	}{
		{"WithTelemetry", WithTelemetry(telemetry.Options{Enabled: true, TraceCap: 7}),
			func(o RunnerOptions) bool { return o.Telemetry.Enabled && o.Telemetry.TraceCap == 7 }},
		{"WithFreshBoot", WithFreshBoot(), func(o RunnerOptions) bool { return o.FreshBoot }},
	} {
		shared := NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{})
		camp := NewCampaign(shared, c.opt)
		if camp.Runner() == shared {
			t.Fatalf("%s must clone the runner", c.name)
		}
		if !c.changed(camp.Runner().Opts) {
			t.Fatalf("%s: campaign runner options = %+v", c.name, camp.Runner().Opts)
		}
		if c.changed(shared.Opts) {
			t.Fatalf("%s mutated the shared runner's options: %+v", c.name, shared.Opts)
		}
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
