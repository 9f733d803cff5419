package main

import (
	"bytes"
	"errors"
	"fmt"
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

// motivationList is a chaos list on which a fleet, and later a replay,
// once diverged from the in-process campaign: each ran the panicking and
// the flaky spec as ordinary faults.
const motivationList = "ReadFile 1 1 flip\nDTSChaosPanic 0 1 zero\nWriteFile 1 1 zero\nDTSChaosFlaky 0 1 zero\nCreateEventA 0 1 zero\n"

// readFile returns a file's bytes or fails the test.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fleetMatchesLocal runs a -config campaign with flags in-process and on
// a two-worker fleet, and requires cmp-equal archives: a fleet campaign
// runs supervised exactly when the in-process one does.
func fleetMatchesLocal(t *testing.T, cfgPath string, flags ...string) {
	t.Helper()
	t.Setenv("DTS_HELPER_PROCESS", "1") // fleet workers re-enter via TestHelperProcess
	dir := t.TempDir()
	var archives [2][]byte
	for i, fleet := range [][]string{nil, {"-workers", "2", "-parallel", "1"}} {
		outPath := filepath.Join(dir, fmt.Sprintf("%d.json", i))
		args := append(append([]string{"-config", cfgPath, "-q", "-out", outPath}, flags...), fleet...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		archives[i] = readFile(t, outPath)
	}
	if !bytes.Equal(archives[0], archives[1]) {
		t.Errorf("%v: the -workers 2 archive differs from the in-process one", flags)
	}
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
		{[]string{"-config", cfgPath, "-experiment", "table1"}, "-experiment does not take -config"},
		{[]string{"-conformance", "-config", cfgPath}, "-conformance does not take -config"},
		// Table 1 runs calibration scans only: no fleet, no supervisor.
		{[]string{"-experiment", "table1", "-workers", "2"}, "-experiment table1 runs calibration scans only: it does not take -workers"},
		{[]string{"-experiment", "table1", "-run-deadline", "1ns", "-max-quarantined", "1"},
			"it does not take -max-quarantined, -run-deadline"},
		{[]string{"-experiment", "table1", "-retries", "5", "-chaos"}, "it does not take -chaos, -retries"},
		// The key authenticates TCP workers only.
		{[]string{"-config", cfgPath, "-worker-key", "k", "-out", outPath}, "-config takes -worker-key only with a host:port -workers list"},
		{[]string{"-config", cfgPath, "-workers", "2", "-worker-key", "k", "-out", outPath}, "-config takes -worker-key only with a host:port -workers list"},
		{[]string{"-experiment", "figure2", "-workers", "2", "-worker-key", "k"}, "-experiment takes -worker-key only with a host:port -workers list"},
		{[]string{"-resume", jpath, "-worker-key", "k"}, "-resume takes -worker-key only with a host:port -workers list"},
	} {
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	// A fleet takes -retries: a journaled campaign runs supervised on
	// either executor.
	fleetMatchesLocal(t, cfgPath, "-retries", "7", "-journal", filepath.Join(dir, "r.journal"))
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

// TestRunResumeWorkersSupervisedJournal: a -workers fleet resumes a
// journal whose header records a watchdog, a quarantine budget or chaos
// under that policy, so a journal cut mid-campaign (torn tail included)
// resumes on a fleet to the uninterrupted archive.
func TestRunResumeWorkersSupervisedJournal(t *testing.T) {
	t.Setenv("DTS_HELPER_PROCESS", "1") // fleet workers re-enter via TestHelperProcess
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir, motivationList)
	for _, flags := range [][]string{
		{"-run-deadline", "5s"},
		{"-max-quarantined", "3"},
		{"-chaos", "-run-deadline", "5s"},
	} {
		jpath, golden := filepath.Join(dir, "s.journal"), filepath.Join(dir, "s.json")
		var out bytes.Buffer
		args := append([]string{"-config", cfgPath, "-q", "-journal", jpath, "-out", golden}, flags...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		// Keep the header, the plan and two records, then tear the third,
		// as a kill before the final checkpoint would.
		lines := bytes.SplitAfter(readFile(t, jpath), []byte("\n"))
		cut := append(bytes.Join(lines[:4], nil), lines[4][:len(lines[4])/2]...)
		if err := os.WriteFile(jpath, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(jpath + ".ckpt"); err != nil {
			t.Fatal(err)
		}
		resumed := filepath.Join(dir, "r.json")
		if err := run([]string{"-resume", jpath, "-workers", "2", "-parallel", "1", "-q", "-out", resumed}, &out); err != nil {
			t.Fatalf("%v: fleet resume: %v", flags, err)
		}
		if !bytes.Equal(readFile(t, golden), readFile(t, resumed)) {
			t.Errorf("%v: fleet resume of the cut journal differs from the uninterrupted archive", flags)
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

// TestRunReplayChaosJournal: -replay runs under the source header's
// policy and ends through finish. So the chaos journal replayed to
// watchd-v3 quarantines the panic and retries the flaky spec, as a
// from-scratch -chaos -fresh-boot watchd-v3 campaign does, and the two
// archives are cmp-equal; a journal that records a quarantine budget
// stops its replay with exit code 4.
func TestRunReplayChaosJournal(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeChaosList(t, dir, motivationList)
	jpath := filepath.Join(dir, "c.journal")
	replayed, golden := filepath.Join(dir, "r.json"), filepath.Join(dir, "g.json")
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-config", cfgPath, "-q", "-chaos", "-journal", jpath, "-out", filepath.Join(dir, "c.json")},
		{"-config", cfgPath, "-q", "-chaos", "-middleware", "watchd-v3", "-fresh-boot", "-out", golden},
		{"-replay", jpath, "-middleware", "watchd-v3", "-q", "-out", replayed},
	} {
		out.Reset()
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if !strings.Contains(out.String(), "Quarantined runs: 1") {
		t.Errorf("replay report lacks the quarantine:\n%s", out.String())
	}
	if !bytes.Equal(readFile(t, golden), readFile(t, replayed)) {
		t.Error("the replayed chaos archive differs from the from-scratch watchd-v3 one")
	}

	bpath := filepath.Join(dir, "b.journal")
	err := run([]string{"-config", cfgPath, "-q", "-chaos", "-max-quarantined", "1", "-parallel", "1",
		"-journal", bpath, "-out", filepath.Join(dir, "b.json")}, &out)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitQuarantineBudget {
		t.Fatalf("budgeted source campaign returned %v, want exit code %d", err, exitQuarantineBudget)
	}
	err = run([]string{"-replay", bpath, "-middleware", "watchd-v3", "-q", "-parallel", "1", "-out", filepath.Join(dir, "br.json")}, &out)
	if !errors.As(err, &ee) || ee.code != exitQuarantineBudget {
		t.Fatalf("replay of a budgeted journal returned %v, want exit code %d", err, exitQuarantineBudget)
	}
}
