package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ntdts/internal/ntsim/win32.(*Process).Raw":            "ntsim.win32",
		"ntdts/internal/ntsim.(*Kernel).Step":                  "ntsim",
		"ntdts/internal/apps/iis.serve.func1":                  "apps",
		"ntdts/internal/middleware/watchd.Start":               "middleware.watchd",
		"ntdts/internal/middleware.Parse":                      "other",
		"ntdts/internal/workloadgen.Parse":                     "other",
		"ntdts/internal/shard.(*Fleet).ExecuteShards.func2":    "shard",
		"ntdts/internal/core.planFor[...]":                     "core",
		"main.runCampaigns.func1":                              "bench",
		"encoding/json.Marshal":                                "",
		"runtime.mallocgc":                                     "",
		"ntdts/internal/ntsim/cluster.(*Network).Send":         "ntsim.cluster",
		"ntdts/internal/experiments.(*Archive).Save":           "experiments",
		"ntdts/internal/telemetry.(*Recorder).Emit":            "telemetry",
		"ntdts/internal/vclock.(*Clock).ScheduleAt":            "vclock",
		"ntdts/internal/ntsim/crt.(*Heap).Alloc":               "ntsim.crt",
		"ntdts/internal/journal.(*Stream).Next":                "journal",
		"ntdts/internal/replay.(*Oracle).Resolve":              "replay",
		"ntdts/internal/sqlengine.Parse":                       "sqlengine",
		"ntdts/internal/middleware/mscs.(*Monitor).poll.func3": "middleware.mscs",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeSyntheticStacks(t *testing.T) {
	stacks := [][]string{
		// Allocation time goes to the repository frame that called it.
		{"runtime.mallocgc", "ntdts/internal/ntsim.(*Kernel).Step", "ntdts/internal/core.(*Runner).run"},
		// JSON encoding on behalf of the journal is the journal's.
		{"encoding/json.Marshal", "ntdts/internal/journal.(*Writer).writeRecord", "ntdts/internal/shard.(*dispatcher).commit"},
		// The innermost repository frame wins over the harness.
		{"ntdts/internal/core.(*Runner).Run", "main.runCampaigns.func1"},
		// Harness-only stacks are the harness's.
		{"crypto/sha256.block", "main.(*iteration).finish", "main.main"},
		// GC workers have no repository frame.
		{"runtime.gcBgMarkWorker"},
		{},
	}
	weights := []int64{4, 2, 1, 1, 1, 1}
	shares := attribute(stacks, weights)
	want := map[string]float64{"ntsim": 0.4, "journal": 0.2, "core": 0.1, "bench": 0.1, "runtime": 0.2}
	sum := 0.0
	for m, s := range shares {
		sum += s
		if math.Abs(s-want[m]) > 1e-9 {
			t.Errorf("share %s = %v, want %v", m, s, want[m])
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01", sum)
	}
	if len(shares) != len(cpuModules) {
		t.Errorf("%d buckets reported, want all %d", len(shares), len(cpuModules))
	}
}

// TestReadRealProfile decodes a profile the Go runtime wrote, so the
// hand-rolled protobuf decoder is checked against the real encoder.
func TestReadRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	_, err := profiled(path, func() (*iterResult, error) {
		x := 0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			x += spin(1000)
		}
		return &iterResult{Jobs: x}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stacks, weights, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			found = found || (strings.HasSuffix(fn, ".spin") && moduleOf(fn) == "bench")
		}
	}
	if !found {
		t.Error("no sample charges spin to the harness")
	}
	sum := 0.0
	for _, s := range attribute(stacks, weights) {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01", sum)
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i * i
	}
	return x
}
