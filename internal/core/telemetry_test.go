package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ntdts/internal/determinism"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// telemetrySpecs builds a deterministic 200-fault list spanning the
// KERNEL32 catalog: one spec per injectable entry, cycling parameters and
// corruption types. Faults on functions the workload never calls still
// execute as full runs — exactly what a user-supplied fault list does.
func telemetrySpecs(n int) []inject.FaultSpec {
	types := inject.AllFaultTypes()
	var specs []inject.FaultSpec
	for i, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		specs = append(specs, inject.FaultSpec{
			Function:   e.Name,
			Param:      i % e.Params,
			Invocation: 1,
			Type:       types[i%len(types)],
		})
		if len(specs) == n {
			break
		}
	}
	return specs
}

// TestCampaignTelemetryDeterministic is the telemetry analogue of the
// engine's core guarantee: a 200-spec campaign executed at worker counts
// 1, 4 and 16 exports byte-identical merged traces and metrics. Each run
// owns its recorder and the merge is by fault-list index, so the worker
// schedule can't leak into the artifacts. CI runs this under -race, which
// also proves collectors are never shared across workers.
func TestCampaignTelemetryDeterministic(t *testing.T) {
	specs := telemetrySpecs(200)
	if len(specs) != 200 {
		t.Fatalf("built %d specs, want 200", len(specs))
	}
	sweep := func(par int) (trace []byte, metrics string) {
		opts := RunnerOptions{Telemetry: telemetry.Options{Enabled: true}}
		runner := NewRunner(workload.NewApache1(workload.Standalone), opts)
		runs, err := specRuns(runner, specs, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		set := CollectTelemetry(nil, runs)
		if len(set.Runs) != len(specs) {
			t.Fatalf("parallelism %d: %d recorders, want %d", par, len(set.Runs), len(specs))
		}
		for i, rec := range set.Runs {
			if rec == nil {
				t.Fatalf("parallelism %d: run %d has no recorder", par, i)
			}
		}
		var buf bytes.Buffer
		if err := set.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), set.MetricsText()
	}

	seqTrace, seqMetrics := sweep(1)
	if len(seqTrace) == 0 {
		t.Fatal("sequential sweep produced an empty trace")
	}
	for _, par := range []int{4, 16} {
		parTrace, parMetrics := sweep(par)
		if !bytes.Equal(seqTrace, parTrace) {
			determinism.AssertSameTranscript(t, "merged campaign trace",
				string(parTrace), string(seqTrace), func(i int, _, _ string) string {
					return fmt.Sprintf("200-spec Apache1/none fault list at -parallel %d, trace line %d", par, i+1)
				})
		}
		determinism.AssertSameTranscript(t, "merged campaign metrics", parMetrics, seqMetrics,
			func(i int, _, _ string) string {
				return fmt.Sprintf("200-spec Apache1/none fault list at -parallel %d", par)
			})
	}
}

// TestCampaignTelemetryDisabledIsFree: with telemetry off (the default),
// runs carry no recorder and the set result is exactly what it was before
// the telemetry layer existed.
func TestCampaignTelemetryDisabledIsFree(t *testing.T) {
	set, err := apache1Campaign(1, nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Telemetry != nil {
		t.Fatal("disabled campaign produced a telemetry set")
	}
	for i, r := range set.Runs {
		if r.Telemetry != nil {
			t.Fatalf("run %d carries a recorder with telemetry disabled", i)
		}
	}
}

// TestCampaignTelemetryEnabled: an enabled campaign attaches one recorder
// per run plus the calibration run at index 0, and the run span brackets
// every run's trace.
func TestCampaignTelemetryEnabled(t *testing.T) {
	c := apache1Campaign(4, nil)
	c.Runner().Opts.Telemetry = telemetry.Options{Enabled: true}
	set, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Telemetry == nil {
		t.Fatal("enabled campaign produced no telemetry set")
	}
	if want := len(set.Runs) + 1; len(set.Telemetry.Runs) != want {
		t.Fatalf("%d recorders, want %d (calibration + runs)", len(set.Telemetry.Runs), want)
	}
	for i, rec := range set.Telemetry.Runs {
		if rec == nil {
			t.Fatalf("telemetry run %d is nil", i)
		}
		events := rec.Events()
		if len(events) == 0 {
			t.Fatalf("telemetry run %d is empty", i)
		}
		if events[0].Kind != telemetry.KindSpanBegin || events[0].Name != telemetry.SpanRun {
			t.Fatalf("run %d does not open with the run span: %+v", i, events[0])
		}
		if rec.Counter(telemetry.CtrSyscalls) == 0 {
			t.Fatalf("run %d recorded no syscall dispatches", i)
		}
	}
	// Calibration (index 0) is fault-free; every later recorder belongs to
	// a fault run and must carry the arming event.
	for i, rec := range set.Telemetry.Runs {
		armed := rec.Counter(telemetry.CtrFaultArmed)
		if i == 0 && armed != 0 {
			t.Fatal("calibration run armed a fault")
		}
		if i > 0 && armed != 1 {
			t.Fatalf("fault run %d armed %d faults, want 1", i, armed)
		}
	}
}

// TestCommitRecordKeepsTraceEncoded: the fleet coordinator commits a
// streamed run record without rebuilding its trace's events. One
// Ledger.CommitRecord of a real IIS/watchd-v2 record, read back off
// the wire format by journal.Stream, must allocate less than half of
// what DecodeSnapshot followed by Restore allocates on its snapshot
// alone.
func TestCommitRecordKeepsTraceEncoded(t *testing.T) {
	opts := DefaultRunnerOptions()
	opts.WatchdVersion = watchd.V2
	opts.Telemetry = telemetry.Options{Enabled: true}
	spec := inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits}
	res, err := NewRunner(workload.NewIIS(workload.Watchd), opts).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Telemetry.Events()); n < 50 {
		t.Fatalf("the run traced %d events, want a full run's", n)
	}
	result, tel, err := MarshalRunRecord(res)
	if err != nil {
		t.Fatal(err)
	}
	line, err := journal.AppendRun(nil, 0, spec.Key(), 1, result, tel)
	if err != nil {
		t.Fatal(err)
	}
	l, err := journal.NewStream(bytes.NewReader(line)).Next()
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLedger([]PlanJob{{Spec: spec}})
	commit := testing.AllocsPerRun(20, func() {
		if _, err := ledger.CommitRecord(l.Rec); err != nil {
			t.Fatal(err)
		}
	})
	restore := testing.AllocsPerRun(20, func() {
		var s telemetry.Snapshot
		if err := telemetry.DecodeSnapshot(l.Rec.Tel, &s); err != nil {
			t.Fatal(err)
		}
		s.Restore()
	})
	t.Logf("allocs: CommitRecord %.0f, DecodeSnapshot+Restore %.0f", commit, restore)
	if commit >= restore/2 {
		t.Fatalf("CommitRecord allocated %.0f objects, want under half of DecodeSnapshot+Restore's %.0f: the committed trace is rebuilt",
			commit, restore)
	}
	if !bytes.Equal(ledger.Results()[0].Telemetry.AppendSnapshotJSON(nil), tel) {
		t.Fatal("the committed recorder re-encodes to other bytes than the record carried")
	}
}
