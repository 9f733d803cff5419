package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntdts/internal/experiments"
)

// writeChaosList writes a config + fault list mixing the reserved chaos
// functions with ordinary faults.
func writeChaosList(t *testing.T, dir, faults string) string {
	t.Helper()
	listPath := filepath.Join(dir, "faults.lst")
	if err := os.WriteFile(listPath, []byte(faults), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "dts.cfg")
	if err := os.WriteFile(cfgPath, []byte(
		"workload = IIS\nmiddleware = none\nfault_list = "+listPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

// TestRunChaosQuarantine: a deliberately panicking and a deliberately
// hanging spec are quarantined with evidence in the report; the ordinary
// runs complete and the archive records the quarantine placeholders.
func TestRunChaosQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir,
		"ReadFile 1 1 flip\nDTSChaosPanic 0 1 flip\nDTSChaosHang 0 1 flip\nGetVersionExA 0 1 zero\n")
	outPath := filepath.Join(dir, "out.json")
	var out bytes.Buffer
	err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-chaos", "-run-deadline", "100ms", "-retries", "1", "-parallel", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Quarantined runs: 2",
		"DTSChaosPanic", "panic after 2 attempts", "deliberate panic",
		"DTSChaosHang", "hang after 2 attempts", "wall-clock deadline",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("quarantine report missing %q:\n%s", want, text)
		}
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := experiments.LoadArchive(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Set.Runs) != 4 || len(a.Set.Quarantined) != 2 {
		t.Fatalf("archive: %d runs, %d quarantined", len(a.Set.Runs), len(a.Set.Quarantined))
	}
	if a.Set.Partial {
		t.Fatal("completed campaign marked partial")
	}
	if !a.Set.Runs[1].Quarantined || !a.Set.Runs[2].Quarantined {
		t.Fatal("quarantine placeholders not flagged in runs")
	}
}

// TestRunMaxQuarantinedBudget: crossing -max-quarantined stops the
// campaign with the dedicated exit code and saves partial results.
func TestRunMaxQuarantinedBudget(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir,
		"DTSChaosPanic 0 1 flip\nReadFile 1 1 flip\nGetVersionExA 0 1 zero\n")
	outPath := filepath.Join(dir, "out.json")
	var out bytes.Buffer
	err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-chaos", "-retries", "0", "-max-quarantined", "1", "-parallel", "1"}, &out)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitQuarantineBudget {
		t.Fatalf("budget overrun returned %v, want exit code %d", err, exitQuarantineBudget)
	}
	if !strings.Contains(out.String(), "quarantine budget reached") {
		t.Fatalf("output missing budget message:\n%s", out.String())
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := experiments.LoadArchive(f)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Set.Partial {
		t.Fatal("budget-stopped archive not marked partial")
	}
	if len(a.Set.Quarantined) != 1 {
		t.Fatalf("%d quarantined, want 1", len(a.Set.Quarantined))
	}
}

// TestRunFlagConflicts: each mode rejects, by name, every flag it does
// not honour. The rows after the first seven once ran to completion with
// the named flag silently ignored.
func TestRunFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir, "ReadFile 1 1 flip\nGetVersionExA 0 1 zero\n")
	jpath := filepath.Join(dir, "c.journal")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-q", "-journal", jpath,
		"-out", filepath.Join(dir, "c.json")}, &out); err != nil {
		t.Fatal(err)
	}
	t.Setenv("DTS_HELPER_PROCESS", "1") // fleet workers re-enter via TestHelperProcess
	tracePath, outPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "x.json")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-resume", "x.journal", "-config", "dts.cfg"}, "-resume does not take -config"},
		{[]string{"-resume", "x.journal", "-experiment", "table1"}, "-resume does not take -experiment"},
		{[]string{"-resume", "x.journal", "-conformance"}, "-resume does not take -conformance"},
		{[]string{"-resume", "x.journal", "-journal", "y.journal"}, "-resume does not take -journal"},
		{[]string{"-journal", "x.journal", "-experiment", "table1"}, "-experiment does not take -journal"},
		{[]string{"-journal", "x.journal", "-conformance"}, "-conformance does not take -journal"},
		{[]string{"-experiment", "figure2", "-retries", "-1"}, "-retries must be >= 0"},
		{[]string{"-replay", jpath, "-middleware", "watchd-v3", "-trace-out", tracePath, "-metrics"},
			"-replay does not take -metrics, -trace-out"},
		{[]string{"-resume", jpath, "-fresh-boot"}, "-resume does not take -fresh-boot"},
		{[]string{"-resume", jpath, "-run-deadline", "5s"}, "-resume does not take -run-deadline"},
		{[]string{"-config", cfgPath, "-fault", "ReadFile 1 1 flip", "-out", outPath}, "-fault does not take -out"},
		{[]string{"-config", cfgPath, "-no-elide"}, "-config does not take -no-elide"},
		{[]string{"-config", cfgPath, "-workers", "2", "-retries", "7"}, "does not take -retries"},
		{[]string{"-config", cfgPath, "-experiment", "table1"}, "-experiment does not take -config"},
		{[]string{"-conformance", "-config", cfgPath}, "-conformance does not take -config"},
		// Table 1 runs calibration scans only: no fleet, no supervisor.
		{[]string{"-experiment", "table1", "-workers", "2"}, "-experiment table1 runs calibration scans only: it does not take -workers"},
		{[]string{"-experiment", "table1", "-run-deadline", "1ns", "-max-quarantined", "1"},
			"it does not take -max-quarantined, -run-deadline"},
		{[]string{"-experiment", "table1", "-retries", "5", "-chaos"}, "it does not take -chaos, -retries"},
	} {
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestRunResumeTelemetryMismatch: a journal records whether telemetry was
// collected; resuming with a different setting cannot be byte-identical,
// so it is refused with a directive error.
func TestRunResumeTelemetryMismatch(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir, "ReadFile 1 1 flip\nGetVersionExA 0 1 zero\n")
	jpath := filepath.Join(dir, "t.journal")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-q", "-journal", jpath,
		"-out", filepath.Join(dir, "out.json")}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-resume", jpath, "-metrics", "-q"}, &out)
	if err == nil || !strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("telemetry mismatch returned %v", err)
	}
	// Matching setting resumes cleanly (everything replays).
	if err := run([]string{"-resume", jpath, "-q"}, &out); err != nil {
		t.Fatalf("clean resume: %v", err)
	}
}

// TestRunResumeWorkersRejectsSupervisedJournal: a -workers fleet runs
// unsupervised, so it refuses to resume a journal whose header records a
// watchdog, a quarantine budget or chaos, and names each such flag.
func TestRunResumeWorkersRejectsSupervisedJournal(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir, "ReadFile 1 1 flip\nGetVersionExA 0 1 zero\n")
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-run-deadline", "5s"}, "records -run-deadline:"},
		{[]string{"-max-quarantined", "3"}, "records -max-quarantined:"},
		{[]string{"-chaos", "-run-deadline", "5s"}, "records -run-deadline, -chaos:"},
	} {
		jpath := filepath.Join(dir, "s.journal")
		var out bytes.Buffer
		args := append([]string{"-config", cfgPath, "-q", "-journal", jpath, "-out", filepath.Join(dir, "s.json")}, c.flags...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-resume", jpath, "-workers", "2", "-q"}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.flags, err, c.want)
		}
	}
}

// TestRunResumeMissingJournal: a bad journal path is a plain error.
func TestRunResumeMissingJournal(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-resume", filepath.Join(t.TempDir(), "absent.journal")}, &out); err == nil {
		t.Fatal("missing journal accepted")
	}
}
