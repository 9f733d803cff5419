package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntdts/internal/analysis"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/inject"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden rendering files from live output")

// goldenSets builds the deterministic before/after pair the golden
// renderings pin: a watchd-v3 swap that fixes two ReadFile failures,
// breaks a CreateFileA success, and leaves one run a slow outlier.
func goldenSets() (a, b *core.SetResult) {
	faults := []inject.FaultSpec{
		{Function: "CreateFileA", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.OneBits},
		{Function: "WriteFile", Param: 2, Invocation: 1, Type: inject.ZeroBits},
	}
	build := func(sup string, ver int, outcomes []core.Outcome) *core.SetResult {
		set := &core.SetResult{Workload: "IIS", Supervision: sup, WatchdVersion: ver,
			ActivatedFns: 4, FaultFreeSec: 10}
		for i, f := range faults {
			o := outcomes[i]
			r := core.RunResult{Fault: f, Activated: true, Injected: true,
				Outcome: o, Completed: o != core.Failure, ResponseSec: 10}
			if o == core.RestartSuccess {
				r.Restarts, r.ResponseSec = 1, 14
			}
			set.Runs = append(set.Runs, r)
		}
		return set
	}
	a = build("none", 0, []core.Outcome{core.NormalSuccess, core.Failure, core.Failure, core.NormalSuccess})
	b = build("watchd", 3, []core.Outcome{core.Failure, core.RestartSuccess, core.NormalSuccess, core.NormalSuccess})
	b.Runs[3].ResponseSec = 90 // the recovery outlier
	return a, b
}

func saveSetArchive(t *testing.T, set *core.SetResult, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := (&experiments.Archive{Kind: "set", Set: set}).Save(f); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenRenderings pins the -diff, -fitness and -anomalies output
// byte for byte.
func TestGoldenRenderings(t *testing.T) {
	aSet, bSet := goldenSets()
	dir := t.TempDir()
	aPath, bPath := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	saveSetArchive(t, aSet, aPath)
	saveSetArchive(t, bSet, bPath)

	var out bytes.Buffer
	if err := diffArchives(aPath, bPath, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.golden", out.Bytes())

	out.Reset()
	qb, err := analysis.OpenArchive(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := renderFitness(qb, "", &out); err != nil {
		t.Fatal(err)
	}
	if err := renderFitness(qb, "avail=2,recovery=1,quarantine=0.5", &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fitness.golden", out.Bytes())

	out.Reset()
	if err := renderAnomalies(qb, 5, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "anomalies.golden", out.Bytes())
}

// TestGoldenSummaries pins the -trace and -journal summaries byte for
// byte — the renderings the analysis-loader migration must not perturb.
func TestGoldenSummaries(t *testing.T) {
	var out bytes.Buffer
	if err := summarizeJournal(fleetJournalFixture(t, true), &out); err != nil {
		t.Fatal(err)
	}
	// The resume hint embeds the temp path; strip the final line's
	// variable part so the golden stays stable.
	sum := out.String()
	if i := bytes.LastIndexByte([]byte(sum), ' '); i >= 0 {
		sum = sum[:i+1] + "<path>\n"
	}
	checkGolden(t, "journal_summary.golden", []byte(sum))

	lines := `{"run":0,"at":10,"pid":1,"kind":"syscall","name":"ReadFile","a":0,"b":0}
{"run":0,"at":20,"pid":1,"kind":"syscall","name":"CloseHandle","a":0,"b":0}
{"run":1,"at":35,"pid":1,"kind":"syscall","name":"ReadFile","a":0,"b":0}
{"run":1,"at":40,"pid":0,"kind":"fault-armed","name":"ReadFile","a":0,"b":0}
{"run":1,"at":50,"pid":0,"kind":"fault-activated","name":"ReadFile","a":0,"b":0}
{"run":1,"at":60,"pid":0,"kind":"fault-injected","name":"ReadFile","a":7,"b":8}
`
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := summarizeTrace(path, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_summary.golden", out.Bytes())
}

// TestDiffFitnessFlagSurface drives the new modes through the flag
// parser end to end.
func TestDiffFitnessFlagSurface(t *testing.T) {
	aSet, bSet := goldenSets()
	dir := t.TempDir()
	aPath, bPath := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	saveSetArchive(t, aSet, aPath)
	saveSetArchive(t, bSet, bPath)

	if err := run([]string{"-diff", aPath, bPath}); err != nil {
		t.Errorf("-diff: %v", err)
	}
	if err := run([]string{"-diff", aPath}); err == nil {
		t.Error("-diff with one path accepted")
	}
	if err := run([]string{"-fitness", "-in", bPath, "-weights", "avail=1"}); err != nil {
		t.Errorf("-fitness: %v", err)
	}
	if err := run([]string{"-fitness", "-in", bPath, "-weights", "bogus=1"}); err == nil {
		t.Error("bad -weights accepted")
	}
	if err := run([]string{"-anomalies", "-in", bPath, "-mad", "3"}); err != nil {
		t.Errorf("-anomalies: %v", err)
	}
	// Every mode but -diff rejects a positional argument by name: the
	// flag package stops at it, so the flags after it would be lost
	// (-artifact table2 would silently render the auto artifact).
	for _, args := range [][]string{
		{"-in", bPath, "stray", "-artifact", "table2"},
		{"-fitness", "-in", bPath, "stray", "-weights", "avail=1"},
		{"-anomalies", "-in", bPath, "stray", "-mad", "3"},
		{"-trace", aPath, "stray"},
		{"-journal", aPath, "stray"},
		{"stray", "-in", bPath},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
			t.Errorf("%v: err = %v, want the stray argument named", args, err)
		}
	}
	if err := run([]string{"-diff", aPath, bPath, "stray"}); err == nil {
		t.Error("-diff with three paths accepted")
	}
}
