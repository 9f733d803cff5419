package telemetry_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ntdts/internal/determinism"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite golden files from live behaviour")

// --- Recorder unit tests -----------------------------------------------------

func TestRecorderRingWrap(t *testing.T) {
	rec := telemetry.NewRecorder(4)
	for i := 0; i < 7; i++ {
		rec.Emit(vclock.Time(i), 1, telemetry.KindPhase, "e", uint64(i), 0)
	}
	events := rec.Events()
	if len(events) != 4 {
		t.Fatalf("%d events retained, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(i + 3); e.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest must be displaced first)", i, e.A, want)
		}
	}
	if rec.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", rec.Dropped())
	}
}

// TestRecorderCloneRelabel: a clone of a wrapped ring renders the same
// bytes, Relabel rewrites only its kind's events in place, and neither
// relabelling nor later emission into the clone reaches the original.
func TestRecorderCloneRelabel(t *testing.T) {
	rec := telemetry.NewRecorder(4)
	for i := 0; i < 6; i++ {
		kind := telemetry.KindPhase
		if i == 3 {
			kind = telemetry.KindFaultArmed
		}
		rec.Emit(vclock.Time(i), 1, kind, "e", uint64(i), 0)
	}
	rec.Add("x", 1)
	rec.Observe("h", time.Millisecond)
	orig := rec.AppendSnapshotJSON(nil)

	c := rec.Clone()
	if !bytes.Equal(c.AppendSnapshotJSON(nil), orig) {
		t.Fatal("clone renders different bytes")
	}
	c.Relabel(telemetry.KindFaultArmed, "f", 7, 8)
	c.Emit(9, 1, telemetry.KindPhase, "late", 0, 0)
	c.Add("x", 1)
	c.Observe("h", time.Second)
	if !bytes.Equal(rec.AppendSnapshotJSON(nil), orig) {
		t.Fatal("changes to the clone reached the original")
	}
	var relabelled []telemetry.Event
	for _, e := range c.Events() {
		if e.Name == "f" {
			relabelled = append(relabelled, e)
		}
	}
	if len(relabelled) != 1 || relabelled[0].At != 3 || relabelled[0].A != 7 || relabelled[0].B != 8 {
		t.Fatalf("relabelled events %+v, want the one armed event at 3 with A=7 B=8", relabelled)
	}
}

func TestRecorderCountersAndHists(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	rec.Add("x", 2)
	rec.Add("x", 3)
	if got := rec.Counter("x"); got != 5 {
		t.Fatalf("counter x = %d, want 5", got)
	}
	if got := rec.Counter("never"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
	rec.Observe("h", 3*time.Millisecond)
	rec.Observe("h", 40*time.Second)
	_, hists := telemetry.NewSet(rec).MergedHists()
	h := hists["h"]
	if h == nil || h.N != 2 || h.Sum != 3*time.Millisecond+40*time.Second {
		t.Fatalf("histogram %+v", h)
	}
}

func TestSpanBracketsAndObserves(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	span := telemetry.StartSpan(rec, 100, 7, "work")
	span.End(100 + vclock.Time(2*time.Second))
	events := rec.Events()
	if len(events) != 2 ||
		events[0].Kind != telemetry.KindSpanBegin ||
		events[1].Kind != telemetry.KindSpanEnd {
		t.Fatalf("span events %+v", events)
	}
	if events[1].A != uint64(2*time.Second) {
		t.Fatalf("span-end duration %d", events[1].A)
	}
	_, hists := telemetry.NewSet(rec).MergedHists()
	if h := hists["work"]; h == nil || h.N != 1 || h.Sum != 2*time.Second {
		t.Fatalf("span histogram %+v", hists["work"])
	}
}

// TestSetIndexStability: nil recorders occupy their run index, so exports
// number later runs identically whether or not earlier runs recorded.
func TestSetIndexStability(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	rec.Emit(1, 0, telemetry.KindPhase, "only", 0, 0)
	set := telemetry.NewSet(nil, nil, rec)
	var buf bytes.Buffer
	if err := set.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"run":2,`) {
		t.Fatalf("run index not preserved across nil entries: %s", buf.String())
	}
}

// TestJSONLRoundTrip: every trace line is exactly what encoding/json
// writes for it, so it stays valid JSON whatever the name holds —
// quotes, commas, control bytes, DEL, invalid UTF-8 (a fault-list
// function name is any non-space token) — and each name reads back as
// encoding/json round-trips it, an invalid byte as U+FFFD.
func TestJSONLRoundTrip(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	rec.Emit(5, 1, telemetry.KindSyscall, "ReadFile", 5, 0)
	rec.Emit(9, 0, telemetry.KindFaultInjected, `odd "name", with comma`, 7, 8)
	for i, name := range []string{"Read\x01File", "a\x7fb", "Rea\xffd", "<&>"} {
		rec.Emit(vclock.Time(10+i), 2, telemetry.KindFaultArmed, name, uint64(i), 0)
	}
	set := telemetry.NewSet(rec)
	var buf bytes.Buffer
	if err := set.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := rec.Events()
	raw := strings.SplitAfter(buf.String(), "\n")
	if len(raw) != len(want)+1 || raw[len(want)] != "" {
		t.Fatalf("%d lines, want %d:\n%s", len(raw)-1, len(want), buf.String())
	}
	for i, line := range raw[:len(want)] {
		e := want[i]
		ref, err := json.Marshal(struct {
			Run  int    `json:"run"`
			At   int64  `json:"at"`
			PID  uint32 `json:"pid"`
			Kind string `json:"kind"`
			Name string `json:"name"`
			A    uint64 `json:"a"`
			B    uint64 `json:"b"`
		}{0, int64(e.At), e.PID, e.Kind.String(), e.Name, e.A, e.B})
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid([]byte(line)) || line != string(ref)+"\n" {
			t.Errorf("line %d = %q, want %q", i, line, ref)
		}
	}
	lines, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines read back, want %d", len(lines), len(want))
	}
	for i, l := range lines {
		e := want[i]
		quoted, err := json.Marshal(e.Name)
		if err == nil {
			err = json.Unmarshal(quoted, &e.Name)
		}
		if err != nil {
			t.Fatal(err)
		}
		if l.Run != 0 || l.Event != e {
			t.Fatalf("line %d: %+v != %+v", i, l.Event, e)
		}
	}
}

func TestMetricsTextMerges(t *testing.T) {
	a := telemetry.NewRecorder(0)
	a.Add("c", 1)
	a.Observe("h", time.Second)
	b := telemetry.NewRecorder(0)
	b.Add("c", 2)
	b.Observe("h", time.Second)
	text := telemetry.NewSet(a, b).MetricsText()
	if !strings.Contains(text, "runs 2") || !strings.Contains(text, "c                        3") {
		t.Fatalf("metrics text:\n%s", text)
	}
	if !strings.Contains(text, "n=2 sum=2s") {
		t.Fatalf("histogram line missing:\n%s", text)
	}
}

// --- Zero-allocation disabled path -------------------------------------------

// TestNopDispatchAllocs proves the disabled telemetry path allocates
// nothing: the exact call shapes the kernel hot paths use, through the
// Collector interface, must be free.
func TestNopDispatchAllocs(t *testing.T) {
	var c telemetry.Collector = telemetry.Nop{}
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Enabled() {
			t.Fatal("Nop reports enabled")
		}
		c.Emit(1, 2, telemetry.KindSyscall, "ReadFile", 3, 4)
		c.Add(telemetry.CtrSyscalls, 1)
		c.Observe(telemetry.HistRunResponse, time.Second)
	})
	if allocs != 0 {
		t.Fatalf("Nop dispatch allocates %.1f per call, want 0", allocs)
	}
}

// --- Golden probe trace ------------------------------------------------------

// probeTrace runs the fault-free win32 probe under a recorder big enough
// to retain every event and returns the JSONL export.
func probeTrace(t *testing.T) string {
	t.Helper()
	rec := telemetry.NewRecorder(1 << 16)
	k := ntsim.NewKernel()
	k.SetTelemetry(rec)
	win32.SetupProbe(k)
	if _, err := win32.RunProbe(k); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("probe trace dropped %d events; raise the test cap", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := telemetry.NewSet(rec).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestProbeTraceGolden pins the probe's full telemetry trace byte-for-byte.
// Any change to what the kernel or probe emits — order, timestamps, names —
// shows up as a first-divergence diff. Regenerate with:
//
//	go test ./internal/telemetry -run TestProbeTraceGolden -update
func TestProbeTraceGolden(t *testing.T) {
	got := probeTrace(t)
	const path = "testdata/probe_trace.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	determinism.AssertSameTranscript(t, "probe telemetry trace", got, string(want),
		func(i int, _, _ string) string {
			return fmt.Sprintf("go test ./internal/telemetry -run TestProbeTraceGolden -update # line %d", i+1)
		})
}

// TestProbeTraceRepeatable: two fresh kernels produce byte-identical
// traces — the golden file never flakes.
func TestProbeTraceRepeatable(t *testing.T) {
	if a, b := probeTrace(t), probeTrace(t); a != b {
		determinism.AssertSameTranscript(t, "probe trace rerun", b, a, nil)
	}
}

// --- Trace property tests ----------------------------------------------------

// propertySpecs samples the injectable catalog across parameters and fault
// types — every third entry keeps the test fast while spanning the API
// surface.
func propertySpecs() []inject.FaultSpec {
	var specs []inject.FaultSpec
	types := inject.AllFaultTypes()
	i := 0
	for _, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		if i++; i%3 != 0 {
			continue
		}
		specs = append(specs, inject.FaultSpec{
			Function:   e.Name,
			Param:      i % e.Params,
			Invocation: 1,
			Type:       types[i%len(types)],
		})
	}
	return specs
}

// TestTraceProperties checks two structural invariants over injected probe
// runs spanning the catalog:
//
//  1. Per-process timestamps are monotone non-decreasing: virtual time
//     never runs backwards for any PID (events of one process interleave
//     with others only at scheduling boundaries).
//  2. Fault lifecycle pairing: every activation event names the armed
//     spec, arming happens exactly once and before any activation, and an
//     injection event implies a preceding activation.
func TestTraceProperties(t *testing.T) {
	specs := propertySpecs()
	if len(specs) < 50 {
		t.Fatalf("only %d property specs; catalog shrank?", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		rec := telemetry.NewRecorder(1 << 16)
		k := ntsim.NewKernel()
		k.SetTelemetry(rec)
		injector := inject.New(k, inject.ByImage(win32.ProbeImage), &spec)
		k.SetInterceptor(injector)
		win32.SetupProbe(k)
		if _, err := win32.RunProbe(k); err != nil {
			t.Fatalf("%s: %v", spec.String(), err)
		}

		last := make(map[uint32]vclock.Time)
		var armed, activated, injected int
		var armedAt, firstActivatedAt vclock.Time
		for _, e := range rec.Events() {
			if prev, ok := last[e.PID]; ok && e.At < prev {
				t.Fatalf("%s: pid %d time runs backwards: %v after %v (%+v)",
					spec.String(), e.PID, e.At, prev, e)
			}
			last[e.PID] = e.At
			switch e.Kind {
			case telemetry.KindFaultArmed:
				armed++
				armedAt = e.At
				if e.Name != spec.String() {
					t.Fatalf("armed event names %q, want %q", e.Name, spec.String())
				}
			case telemetry.KindFaultActivated:
				if activated++; activated == 1 {
					firstActivatedAt = e.At
				}
				if e.Name != spec.String() {
					t.Fatalf("activation names %q, want armed spec %q", e.Name, spec.String())
				}
			case telemetry.KindFaultInjected:
				injected++
				if e.Name != spec.String() {
					t.Fatalf("injection names %q, want armed spec %q", e.Name, spec.String())
				}
			}
		}
		if armed != 1 {
			t.Fatalf("%s: %d arming events, want exactly 1", spec.String(), armed)
		}
		if activated > 0 && firstActivatedAt < armedAt {
			t.Fatalf("%s: activation at %v precedes arming at %v",
				spec.String(), firstActivatedAt, armedAt)
		}
		if injected > activated {
			t.Fatalf("%s: %d injections but only %d activations",
				spec.String(), injected, activated)
		}
		if got := rec.Counter(telemetry.CtrFaultActivated); got != int64(activated) {
			t.Fatalf("%s: activation counter %d != %d events", spec.String(), got, activated)
		}
	}
}
