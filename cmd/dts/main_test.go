package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ntdts/internal/experiments"
	"ntdts/internal/telemetry"
)

func TestRunRequiresMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no arguments accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "figure9"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable1Experiment(t *testing.T) {
	dir := t.TempDir()
	archivePath := filepath.Join(dir, "t1.json")
	var out bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-out", archivePath, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Fatalf("output missing table:\n%s", out.String())
	}
	f, err := os.Open(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := experiments.LoadArchive(f)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != "table1" || a.Table1.Counts["IIS"]["none"] != 76 {
		t.Fatalf("archive %+v", a.Kind)
	}
}

func TestRunConfiguredWithFaultList(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dts.cfg")
	listPath := filepath.Join(dir, "faults.lst")
	archivePath := filepath.Join(dir, "out.json")
	if err := os.WriteFile(cfgPath, []byte(
		"workload = IIS\nmiddleware = watchd\nfault_list = "+listPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(listPath, []byte(
		"# two faults\nReadFile 1 1 flip\nGetVersionExA 0 1 zero\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", archivePath, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IIS/watchd") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
	f, err := os.Open(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := experiments.LoadArchive(f)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != "set" || len(a.Set.Runs) != 2 {
		t.Fatalf("archive kind %q with %d runs", a.Kind, len(a.Set.Runs))
	}
	// The flipped ReadFile buffer pointer must have crashed the server.
	crashed := false
	for _, r := range a.Set.Runs {
		if r.Fault.Function == "ReadFile" && r.ServerCrash {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("fault-list run did not record the expected crash")
	}
}

// TestRunParallelFlag runs the same fault list sequentially and with the
// worker pool; the archives must be byte-identical (the engine's
// deterministic-ordering guarantee surfaces at the CLI).
func TestRunParallelFlag(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dts.cfg")
	listPath := filepath.Join(dir, "faults.lst")
	if err := os.WriteFile(cfgPath, []byte(
		"workload = IIS\nmiddleware = none\nfault_list = "+listPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(listPath, []byte(
		"ReadFile 1 1 flip\nGetVersionExA 0 1 zero\nCreateFileA 0 1 ones\nWriteFile 2 1 flip\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	archive := func(parallel string) []byte {
		path := filepath.Join(dir, "out-"+parallel+".json")
		var out bytes.Buffer
		if err := run([]string{"-config", cfgPath, "-out", path, "-q", "-parallel", parallel}, &out); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if seq, par := archive("1"), archive("4"); !bytes.Equal(seq, par) {
		t.Fatal("parallel archive differs from sequential archive")
	}
}

func TestRunRejectsNegativeParallel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-parallel", "-3"}, &out); err == nil {
		t.Fatal("negative -parallel accepted")
	}
}

func TestRunBadConfigPath(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-config", "/nonexistent/dts.cfg"}, &out); err == nil {
		t.Fatal("missing config accepted")
	}
}

// TestRunSingleFaultWithTrace: -trace prints the run's telemetry events,
// one per line, before the summary block the same command prints without
// it, and a ring too small for the run says how many events it dropped.
func TestRunSingleFaultWithTrace(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dts.cfg")
	if err := os.WriteFile(cfgPath, []byte(
		"workload = SQL\nmiddleware = watchd\nwatchd_version = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runFault := func(extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-config", cfgPath, "-fault", "ReadFileEx 2 1 zero"}, extra...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	summary := runFault()
	for _, want := range []string{
		"fault:     ReadFileEx p2 i1 zero",
		"workload:  SQL/watchd",
		"outcome:   failure",
	} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q:\n%s", want, summary)
		}
	}
	for _, c := range []struct {
		flags []string
		want  []*regexp.Regexp
	}{
		{[]string{"-trace"}, []*regexp.Regexp{
			regexp.MustCompile(`(?m)^\S+ +pid2 +spawn sqlservr\.exe 0 0$`),
			regexp.MustCompile(`(?m)^\S+ +pid2 +fault-injected ReadFileEx p2 i1 zero 4096 0$`),
		}},
		{[]string{"-trace", "-trace-cap", "16"}, []*regexp.Regexp{
			regexp.MustCompile(`(?m)^\(\d+ earlier events dropped; raise -trace-cap to keep them\)$`),
		}},
	} {
		t.Run(strings.Join(c.flags, " "), func(t *testing.T) {
			text := runFault(c.flags...)
			trace, rest, ok := strings.Cut(text, summary)
			if !ok || rest != "" {
				t.Fatalf("output does not end in the untraced summary block:\n%s", text)
			}
			for _, re := range c.want {
				if !re.MatchString(trace) {
					t.Errorf("trace matches no %q:\n%s", re, trace)
				}
			}
		})
	}
}

func TestRunSingleFaultBadSpec(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dts.cfg")
	os.WriteFile(cfgPath, []byte("workload = IIS\n"), 0o644)
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-fault", "not a spec at all extra"}, &out); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// TestRunConformanceSampled checks the -conformance mode end to end on a
// seeded sample: matrix lines on stdout, each matching the golden grammar.
func TestRunConformanceSampled(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-conformance", "-sample", "25", "-seed", "3", "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 25 {
		t.Fatalf("%d matrix lines, want 25:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, " -> ") || !strings.Contains(line, " p") {
			t.Fatalf("malformed matrix line %q", line)
		}
	}
}

// TestRunConformanceGoldenRoundTrip: -update writes a golden file a
// subsequent check run accepts, and a corrupted golden fails the check.
func TestRunConformanceGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "matrix.golden")
	var out bytes.Buffer
	if err := run([]string{"-conformance", "-sample", "15", "-golden", golden, "-update", "-q"}, &out); err == nil {
		t.Fatal("-update accepted a sampled sweep; the golden file must stay complete")
	}
	if err := run([]string{"-conformance", "-golden", golden, "-update", "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-conformance", "-golden", golden, "-sample", "20", "-q"}, &out); err != nil {
		t.Fatalf("fresh golden rejected: %v", err)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, bytes.Replace(data, []byte(" -> "), []byte(" -> not-"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-conformance", "-golden", golden, "-sample", "0", "-q"}, &out); err == nil {
		t.Fatal("corrupted golden accepted")
	}
}

// TestRunTraceOutAndMetrics exercises the telemetry flags end to end on a
// fault-list campaign: -trace-out writes a parseable JSONL trace covering
// every run, -metrics prints the merged summary, and both artifacts are
// byte-identical across worker counts.
func TestRunTraceOutAndMetrics(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dts.cfg")
	listPath := filepath.Join(dir, "faults.lst")
	if err := os.WriteFile(cfgPath, []byte(
		"workload = IIS\nmiddleware = none\nfault_list = "+listPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(listPath, []byte(
		"ReadFile 1 1 flip\nGetVersionExA 0 1 zero\nCreateFileA 0 1 ones\nWriteFile 2 1 flip\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runOnce := func(parallel string) (trace []byte, metrics string) {
		tracePath := filepath.Join(dir, "trace-"+parallel+".jsonl")
		var out bytes.Buffer
		args := []string{"-config", cfgPath, "-q", "-parallel", parallel,
			"-out", filepath.Join(dir, "out-"+parallel+".json"),
			"-trace-out", tracePath, "-metrics"}
		if err := run(args, &out); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(out.String(), "runs ")
		if i < 0 {
			t.Fatalf("-metrics output missing summary:\n%s", out.String())
		}
		return data, out.String()[i:]
	}
	seqTrace, seqMetrics := runOnce("1")
	parTrace, parMetrics := runOnce("4")
	if !bytes.Equal(seqTrace, parTrace) {
		t.Fatal("trace differs between -parallel 1 and -parallel 4")
	}
	if seqMetrics != parMetrics {
		t.Fatalf("metrics differ between worker counts:\n%s\nvs\n%s", seqMetrics, parMetrics)
	}

	lines, err := telemetry.ReadJSONL(bytes.NewReader(seqTrace))
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[int]bool)
	for _, l := range lines {
		runs[l.Run] = true
	}
	// Calibration plus four fault runs.
	if len(runs) != 5 {
		t.Fatalf("trace covers %d runs, want 5", len(runs))
	}
	if !strings.Contains(seqMetrics, "fault.injected") ||
		!strings.Contains(seqMetrics, "syscall.dispatch") {
		t.Fatalf("metrics summary missing counters:\n%s", seqMetrics)
	}
}

// TestRunSingleFaultTelemetry: the single-fault replay honours the
// telemetry flags too, with the run exported at index 0.
func TestRunSingleFaultTelemetry(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "dts.cfg")
	tracePath := filepath.Join(dir, "one.jsonl")
	if err := os.WriteFile(cfgPath, []byte("workload = IIS\nmiddleware = none\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-config", cfgPath, "-fault", "ReadFile 1 1 flip",
		"-trace-out", tracePath, "-metrics"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	for _, l := range lines {
		if l.Run != 0 {
			t.Fatalf("single-fault trace has run index %d", l.Run)
		}
		if l.Event.Kind == telemetry.KindFaultInjected {
			injected = true
		}
	}
	if !injected {
		t.Fatal("trace missing the fault-injected event")
	}
	if !strings.Contains(out.String(), "fault.injected") {
		t.Fatalf("-metrics output missing fault counters:\n%s", out.String())
	}
}

// TestRunConformanceTelemetry: the conformance sweep exports one telemetry
// run per cell, stable across worker counts.
func TestRunConformanceTelemetry(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(parallel string) []byte {
		tracePath := filepath.Join(dir, "conf-"+parallel+".jsonl")
		var out bytes.Buffer
		args := []string{"-conformance", "-sample", "20", "-q", "-parallel", parallel,
			"-trace-out", tracePath}
		if err := run(args, &out); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if seq, par := runOnce("1"), runOnce("4"); !bytes.Equal(seq, par) {
		t.Fatal("conformance trace differs between worker counts")
	}
}
