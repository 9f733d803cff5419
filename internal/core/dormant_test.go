package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// TestDormantRunCopies pins the dormant-fault copy. Once a runner holds
// its template, a fault on a function the target never calls costs one
// copy: at most 10 allocations, far below TestRunAllocBudget's executed
// run, so the test fails when the copy stops engaging. Every copy must
// still equal the fresh-boot execution of its own spec, also when the
// trace ring wraps past the fault-armed event, and must not see what
// callers did to earlier results.
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
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d: %v: copied run differs from the fresh-boot run", traceCap, specs[i])
			}
			if !bytes.Equal(got.Telemetry.AppendSnapshotJSON(nil), want.Telemetry.AppendSnapshotJSON(nil)) {
				t.Fatalf("cap %d: %v: copied trace differs from the fresh-boot trace", traceCap, specs[i])
			}
			// What the supervisor and the ledger do to a result.
			got.Skipped, got.Retries = true, 2
			got.Telemetry.Emit(got.Telemetry.LastTime(), 0, telemetry.KindRunRetry, specs[i].String(), 2, 1)
		}
	}
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
