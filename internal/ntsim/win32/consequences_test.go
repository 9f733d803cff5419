package win32

import (
	"testing"

	"ntdts/internal/ntsim"
	"ntdts/internal/telemetry"
)

// TestConsequenceMatrix exhaustively corrupts every parameter of every
// implemented API function with every fault type and asserts the
// simulation's consequence contract: the probe process either completes,
// exits with a recorded code, or dies with an access violation — never a
// Go-level panic, and the kernel always drains.
//
// This is the fault model's safety net: any new API function that can be
// driven into a runtime panic by a corrupted parameter fails here. The
// apiharness conformance sweep layers the failure-mode classification and
// golden matrix on top of the same probe program.
func TestConsequenceMatrix(t *testing.T) {
	arity := make(map[string]int)
	for _, e := range probeSyscalls(t) {
		arity[e.Name] = int(e.A)
	}
	if len(arity) < 80 {
		t.Fatalf("probe exercised only %d functions", len(arity))
	}

	verdicts := make(map[string]int)
	for fn, params := range arity {
		for p := 0; p < params; p++ {
			for _, corrupt := range []struct {
				name  string
				apply func(uint64) uint64
			}{
				{"zero", func(uint64) uint64 { return 0 }},
				{"ones", func(uint64) uint64 { return 0xFFFFFFFF }},
				{"flip", func(v uint64) uint64 { return uint64(^uint32(v)) }},
			} {
				fired := false
				proc := probeOnce(t, func(gotFn string, raw []uint64) {
					if gotFn == fn && !fired && len(raw) > p {
						raw[p] = corrupt.apply(raw[p])
						fired = true
					}
				})
				switch proc.ExitCode() {
				case 0:
					verdicts["benign"]++
				case ntsim.ExitAccessViolation:
					verdicts["crash"]++
				case ntsim.ExitTerminated:
					verdicts["hang"]++ // probe killed at the deadline
				default:
					verdicts["error-exit"]++
				}
			}
		}
	}
	// The matrix must show all the paper's consequence classes.
	if verdicts["benign"] == 0 || verdicts["crash"] == 0 {
		t.Fatalf("degenerate consequence mix: %v", verdicts)
	}
	t.Logf("consequence mix over %d functions: %v", len(arity), verdicts)
}

// probeOnce runs the canonical probe program under an interceptor and
// returns the probe process after the simulation drains.
func probeOnce(t *testing.T, intercept func(fn string, raw []uint64)) *ntsim.Process {
	t.Helper()
	k := ntsim.NewKernel()
	k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, image, fn string, raw []uint64) {
		if image == ProbeImage {
			intercept(fn, raw)
		}
	}})
	SetupProbe(k)
	probe, err := RunProbe(k)
	if err != nil {
		t.Fatal(err)
	}
	if pan := k.Panics(); len(pan) != 0 {
		t.Fatalf("simulated code panicked: %v", pan)
	}
	return probe
}

// probeSyscalls runs the probe once, fault-free, and returns the probe
// process's syscall events in dispatch order: Name is the function, A
// the raw arity that crossed the dispatch boundary.
func probeSyscalls(t *testing.T) []telemetry.Event {
	t.Helper()
	k := ntsim.NewKernel()
	rec := telemetry.NewRecorder(1 << 14)
	k.SetTelemetry(rec)
	SetupProbe(k)
	probe, err := RunProbe(k)
	if err != nil {
		t.Fatal(err)
	}
	if code := probe.ExitCode(); code != 0 {
		t.Fatalf("fault-free probe exited 0x%X", code)
	}
	if n := rec.Dropped(); n > 0 {
		t.Fatalf("the probe's trace dropped %d events", n)
	}
	var out []telemetry.Event
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindSyscall && e.PID == uint32(probe.ID) {
			out = append(out, e)
		}
	}
	return out
}
