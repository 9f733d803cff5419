package core

import (
	"bytes"
	"reflect"
	"testing"

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
