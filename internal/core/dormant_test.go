package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// TestDormantRunCopies pins the dormant-fault copy. Once a runner holds
// its template, a fault on a function the target never calls costs one
// copy: at most 10 allocations, far below TestRunAllocBudget's executed
// run, so the test fails when the copy stops engaging, and a traced IIS
// copy allocates under 4 KB, far below its ~10 KB trace, so the test
// fails when a copy stops sharing its template's encoded trace. Every
// copy must still equal the fresh-boot execution of its own spec, also
// when the trace ring wraps past the fault-armed event, and must not see
// what callers did to earlier results.
func TestDormantRunCopies(t *testing.T) {
	def := workload.NewApache1(workload.Standalone)
	specs := dormantSpecs(t, def, 3)

	r := NewRunner(def, RunnerOptions{})
	if _, err := r.Run(&specs[0]); err != nil { // executes and becomes the template
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(&specs[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("dormant run allocated %.0f objects, want at most 10: the template copy no longer engages", allocs)
	}
	t.Logf("allocs/dormant run = %.0f", allocs)
	// WithTelemetry's clone must not copy the untraced template.
	traced := NewCampaign(r, WithTelemetry(telemetry.Options{Enabled: true})).Runner()
	if res, err := traced.Run(&specs[1]); err != nil || res.Telemetry == nil {
		t.Fatalf("traced clone of an untraced runner returned no recorder (err %v)", err)
	}

	iis := workload.NewIIS(workload.Standalone)
	iisSpecs := dormantSpecs(t, iis, 2)
	tracedIIS := NewRunner(iis, RunnerOptions{Telemetry: telemetry.Options{Enabled: true}})
	if _, err := tracedIIS.Run(&iisSpecs[0]); err != nil {
		t.Fatal(err)
	}
	perCopy := bytesPerRun(20, func() {
		if _, err := tracedIIS.Run(&iisSpecs[1]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes/traced IIS dormant run = %d", perCopy)
	if perCopy >= 4<<10 {
		t.Fatalf("traced IIS dormant run allocated %d bytes, want under 4 KB: the copy no longer shares its template's encoded trace", perCopy)
	}

	for _, traceCap := range []int{0, 16} {
		opts := RunnerOptions{Telemetry: telemetry.Options{Enabled: true, TraceCap: traceCap}}
		fork, fresh := NewRunner(def, opts), NewRunner(def, opts)
		fresh.Opts.FreshBoot = true
		for i := range specs {
			got, err := fork.Run(&specs[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(&specs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withoutRecorders([]RunResult{*got}), withoutRecorders([]RunResult{*want})) {
				t.Fatalf("cap %d: %v: copied run differs from the fresh-boot run", traceCap, specs[i])
			}
			sameTraces(t, fmt.Sprintf("cap %d: %v: copied", traceCap, specs[i]),
				[]*telemetry.Recorder{got.Telemetry}, []*telemetry.Recorder{want.Telemetry})
			// What the supervisor and the ledger do to a result.
			got.Skipped, got.Retries = true, 2
			got.Telemetry.Emit(got.Telemetry.LastTime(), 0, telemetry.KindRunRetry, specs[i].String(), 2, 1)
		}
	}
}

// TestDormantTemplateSharedAcrossPool serves one traced template to 24
// dormant specs on a pool of 8, the way a campaign does, under CI's race
// step: every copy must equal its spec's fresh-boot run, and the
// template's snapshot bytes, which every copy shares, must be as they
// were.
func TestDormantTemplateSharedAcrossPool(t *testing.T) {
	def := workload.NewApache1(workload.Standalone)
	specs := dormantSpecs(t, def, 25)
	opts := RunnerOptions{Telemetry: telemetry.Options{Enabled: true}}
	r := NewRunner(def, opts)
	if _, err := r.Run(&specs[0]); err != nil { // executes and becomes the template
		t.Fatal(err)
	}
	tmpl := r.dormant.get(0)
	for _, spec := range specs[1:] {
		if !Dormant(spec, tmpl.activated) {
			t.Fatalf("%v is not dormant on the template's activation set, so the runner executes it", spec)
		}
	}
	before := tmpl.res.Telemetry.AppendSnapshotJSON(nil)

	set, err := NewCampaign(r, WithSpecs(specs[1:]), WithParallelism(8)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.dormant.get(0) != tmpl {
		t.Fatal("the campaign replaced the runner's template")
	}
	fresh := NewRunner(def, opts)
	fresh.Opts.FreshBoot = true
	want, err := NewCampaign(fresh, WithSpecs(specs[1:]), WithParallelism(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutRecorders(set.Runs), withoutRecorders(want.Runs)) {
		t.Fatal("pooled dormant copies differ from their fresh-boot runs")
	}
	sameTraces(t, "pooled dormant copy", set.Telemetry.Runs, want.Telemetry.Runs)
	if !bytes.Equal(tmpl.res.Telemetry.AppendSnapshotJSON(nil), before) {
		t.Fatal("serving copies changed the template's snapshot bytes")
	}
}

// bytesPerRun reports the bytes f allocates per call, averaged over runs
// calls after one warm-up call, at GOMAXPROCS 1 as testing.AllocsPerRun
// measures.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestClusterDormantRunCopies pins dormancy per node. An MSCS standby
// calls nothing under failover routing, so a fault there is dormant even
// on ReadFile, which the active node calls: once the runner holds node
// 1's template such a run costs one copy, bounded like a single-host
// copy, so the test fails when the runner judges a fault by the union of
// every node's calls. A copy must equal the fresh-boot run even after a
// caller mutated an earlier copy's per-node slice, and a node the
// topology lacks must still fail, whatever templates the runner holds.
func TestClusterDormantRunCopies(t *testing.T) {
	def := workload.NewIIS(workload.MSCS)
	opts := DefaultRunnerOptions()
	opts.Cluster = ClusterConfig{Nodes: 3}
	specs := []inject.FaultSpec{
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits, Node: 1},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 1},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.OneBits, Node: 1},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits, Node: 2},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 2},
	}
	r := NewRunner(def, opts)
	if _, err := r.Run(&specs[0]); err != nil { // executes and becomes node 1's template
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(&specs[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("dormant standby-node run allocated %.0f objects, want at most 10: the cluster copy no longer engages", allocs)
	}
	t.Logf("allocs/dormant cluster run = %.0f", allocs)

	// What a caller may do to a returned record's per-node slice.
	got, err := r.Run(&specs[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Nodes {
		got.Nodes[i].Restarts, got.Nodes[i].Events = 99, 99
	}
	fresh := NewRunner(def, opts)
	fresh.Opts.FreshBoot = true
	for i := range specs[2:] {
		spec := &specs[2+i]
		got, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: copied cluster run differs from the fresh-boot run:\ngot  %+v\nwant %+v", spec, got, want)
		}
	}

	bad := specs[0]
	bad.Node = 5
	if _, err := r.Run(&bad); err == nil || !strings.Contains(err.Error(), "node 5 does not exist") {
		t.Fatalf("node 5 on a 3-node runner holding templates returned %v, want the topology error", err)
	}
}
