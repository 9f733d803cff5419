package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ntdts/internal/determinism"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// planSpecs materializes the first n specs of a workload's catalog plan,
// so equivalence tests sweep a realistic spec mix (every activated
// function × parameter × corruption) without paying for the full catalog.
func planSpecs(t *testing.T, def workload.Definition, n int) []inject.FaultSpec {
	t.Helper()
	var specs []inject.FaultSpec
	// One catalog walk per invocation, so spec counts beyond one sweep's
	// catalog (~87 for Apache1) draw from deeper invocations — sites the
	// snapshot engine still groups and serves from the same boot prefix.
	for inv := 1; len(specs) < n; inv++ {
		if inv > 8 {
			t.Fatalf("plan too small: %d specs, want %d", len(specs), n)
		}
		c := NewCampaign(NewRunner(def, RunnerOptions{}), WithInvocation(inv))
		p, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range p.Jobs {
			if j.Probe {
				continue
			}
			specs = append(specs, j.Spec)
			if len(specs) == n {
				break
			}
		}
	}
	return specs
}

// dormantSpecs returns n specs on catalog functions def's target never
// calls, spread over the catalog and cycling parameter, invocation and
// corruption type: faults a snapshot-fork runner answers with copies of
// its first dormant run.
func dormantSpecs(t *testing.T, def workload.Definition, n int) []inject.FaultSpec {
	t.Helper()
	activated, _, err := NewRunner(def, RunnerOptions{}).ActivationScan()
	if err != nil {
		t.Fatal(err)
	}
	types := inject.AllFaultTypes()
	var specs []inject.FaultSpec
	for i, e := range win32.Catalog() {
		if e.Params == 0 || activated[e.Name] || i%7 != 0 {
			continue
		}
		k := len(specs)
		specs = append(specs, inject.FaultSpec{
			Function: e.Name, Param: k % e.Params, Invocation: 1 + k%4, Type: types[k%len(types)],
		})
		if len(specs) == n {
			return specs
		}
	}
	t.Fatalf("catalog holds only %d dormant specs for %s, want %d", len(specs), def.Name, n)
	return nil
}

// TestSnapshotForkMatchesFreshBoot is the engine's acceptance oracle: a
// 200-spec campaign executed on the snapshot-fork engine is deep- and
// byte-identical to the legacy fresh-boot engine, at every worker count.
// Both arms are traced, and the list ends with dormant faults, which the
// fork engine copies and fresh-boot simulates: archive, merged trace
// and metrics must still match.
func TestSnapshotForkMatchesFreshBoot(t *testing.T) {
	def := workload.NewApache1(workload.Standalone)
	specs := append(planSpecs(t, def, 200), dormantSpecs(t, def, 24)...)

	runSet := func(freshBoot bool, par int) *SetResult {
		c := NewCampaign(
			NewRunner(def, RunnerOptions{Telemetry: telemetry.Options{Enabled: true}}),
			WithSpecs(specs),
			WithParallelism(par),
		)
		if freshBoot {
			c.Runner().Opts.FreshBoot = true
		}
		set, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("freshBoot=%v par=%d: %v", freshBoot, par, err)
		}
		return set
	}
	artifacts := func(set *SetResult) (archive, trace []byte, metrics string) {
		archive, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := set.Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return archive, buf.Bytes(), set.Telemetry.MetricsText()
	}

	baseline := runSet(true, 1)
	baseJSON, baseTrace, baseMetrics := artifacts(baseline)
	for _, par := range []int{1, 4, 16} {
		forked := runSet(false, par)
		// The exports first, while dormant copies still share their
		// template's encoded trace; Events below decodes it.
		forkedJSON, forkedTrace, forkedMetrics := artifacts(forked)
		if !bytes.Equal(baseJSON, forkedJSON) {
			t.Fatalf("par=%d: archive bytes diverge from fresh-boot", par)
		}
		if !bytes.Equal(baseTrace, forkedTrace) {
			t.Fatalf("par=%d: merged trace diverges from fresh-boot", par)
		}
		if forkedMetrics != baseMetrics {
			t.Fatalf("par=%d: metrics text diverges from fresh-boot", par)
		}
		determinism.AssertEqualSlices(t, fmt.Sprintf("snapshot-forked runs (par=%d)", par),
			withoutRecorders(forked.Runs), withoutRecorders(baseline.Runs), func(i int) string {
				return fmt.Sprintf("dts -config <Apache1/none> -fault %q -fresh-boot", baseline.Runs[i].Fault.String())
			})
		sameTraces(t, fmt.Sprintf("par=%d: snapshot-forked", par), forked.Telemetry.Runs, baseline.Telemetry.Runs)
		b, f := *baseline, *forked
		b.Runs, b.Telemetry, f.Runs, f.Telemetry = nil, nil, nil, nil
		if !reflect.DeepEqual(b, f) {
			t.Fatalf("par=%d: set diverges outside Runs", par)
		}
	}
}

// withoutRecorders returns a copy of runs with every Telemetry cleared.
// A dormant copy's recorder holds its trace in another form than a
// fresh-boot run's, so reflect.DeepEqual compares the records without
// them and sameTraces compares the traces.
func withoutRecorders(runs []RunResult) []RunResult {
	out := slices.Clone(runs)
	for i := range out {
		out[i].Telemetry = nil
	}
	return out
}

// sameTraces fails unless got and want hold, recorder by recorder, the
// same snapshot bytes and then the same Events, which decode a recorder
// that keeps its events encoded.
func sameTraces(t *testing.T, what string, got, want []*telemetry.Recorder) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d recorders, want %d", what, len(got), len(want))
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("%s: recorder %d is %v, want %v", what, i, got[i], want[i])
		}
		if got[i] == nil {
			continue
		}
		if !bytes.Equal(got[i].AppendSnapshotJSON(nil), want[i].AppendSnapshotJSON(nil)) {
			t.Fatalf("%s: trace %d differs from the fresh-boot trace", what, i)
		}
		if !reflect.DeepEqual(got[i].Events(), want[i].Events()) {
			t.Fatalf("%s: events of trace %d differ from the fresh-boot events", what, i)
		}
	}
}

// TestSnapshotForkAllWorkloads sweeps every supervision mode over a small
// spec slice: the fork path must match fresh-boot under middleware
// (MSCS restart loops, watchd polling) as well as standalone.
func TestSnapshotForkAllWorkloads(t *testing.T) {
	for _, sup := range []workload.Supervision{workload.Standalone, workload.MSCS, workload.Watchd} {
		for _, def := range workload.StandardSet(sup) {
			def := def
			t.Run(def.Name+"/"+sup.String(), func(t *testing.T) {
				t.Parallel()
				specs := planSpecs(t, def, 12)
				run := func(freshBoot bool) *SetResult {
					c := NewCampaign(NewRunner(def, RunnerOptions{}), WithSpecs(specs), WithParallelism(2))
					c.Runner().Opts.FreshBoot = freshBoot
					set, err := c.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return set
				}
				fresh, forked := run(true), run(false)
				if !reflect.DeepEqual(fresh, forked) {
					t.Fatal("forked campaign diverges from fresh-boot")
				}
			})
		}
	}
}

// TestSnapshotFallback proves the transparent fresh-boot fallback: a
// workload whose Setup leaves the kernel non-quiescent (a background
// timer here) cannot be captured as a boot prefix and still produces
// results identical to forced fresh-boot.
func TestSnapshotFallback(t *testing.T) {
	def := workload.NewApache1(workload.Standalone)
	base := def.Setup
	def.Setup = func(k *ntsim.Kernel) {
		base(k)
		// A boot-time maintenance timer: snapshot-incompatible, but far
		// enough out never to fire inside a run.
		k.Clock().ScheduleAfter(24*time.Hour, func() {})
	}

	if _, err := NewRunner(def, RunnerOptions{}).prefixSnapshot(); err == nil {
		t.Fatal("non-quiescent setup was captured as a boot prefix")
	}

	specs := planSpecs(t, workload.NewApache1(workload.Standalone), 8)
	run := func(freshBoot bool) *SetResult {
		c := NewCampaign(NewRunner(def, RunnerOptions{}), WithSpecs(specs))
		c.Runner().Opts.FreshBoot = freshBoot
		set, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	if fresh, fallback := run(true), run(false); !reflect.DeepEqual(fresh, fallback) {
		t.Fatal("fallback path diverges from fresh-boot")
	}
}

// TestRunAllocBudget pins the allocation count of one executed run. The
// fault names a function Apache1 calls, so every measured Run simulates
// in full: a dormant fault would return a one-allocation copy and guard
// nothing. The budget has headroom over the measured value but fails
// loudly if the fork, copy-on-write or scheduler layers regress. (Seed
// baseline: ~192k allocs per campaign run.)
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow")
	}
	r := NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{})
	spec := &inject.FaultSpec{Function: "CreateEventA", Param: 0, Invocation: 1, Type: inject.ZeroBits}
	// Warm the snapshot cache outside the measurement.
	res, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Activated {
		t.Fatalf("%s did not activate: the measured run would be a dormant copy", spec)
	}
	allocs := testing.AllocsPerRun(5, func() {
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Activated {
			t.Fatalf("%s returned a dormant copy, not an executed run", spec)
		}
	})
	const budget = 2000
	if allocs > budget {
		t.Fatalf("executed run allocated %.0f objects, budget %d — the fork, copy-on-write or scheduler layers regressed", allocs, budget)
	}
	t.Logf("allocs/run = %.0f (budget %d)", allocs, budget)
}
