package replay_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/replay"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
)

// testSpecs samples the win32 catalog into a fault list mixing
// activated and unactivated functions — the elision oracle must split
// them correctly.
func testSpecs(n int) []inject.FaultSpec {
	var specs []inject.FaultSpec
	i := 0
	for _, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		i++
		if i%9 != 0 {
			continue
		}
		specs = append(specs, inject.FaultSpec{Function: e.Name, Param: 0, Invocation: 1, Type: inject.ZeroBits})
		if len(specs) >= n {
			break
		}
	}
	return specs
}

// runnerFor builds the IIS runner for one substrate.
func runnerFor(t *testing.T, spec middleware.Spec) *core.Runner {
	t.Helper()
	opts := core.DefaultRunnerOptions()
	opts.WatchdVersion = spec.Version()
	return core.NewRunner(workload.NewIIS(spec.Supervision), opts)
}

// journalCampaign runs the spec list supervised+journaled under the
// given substrate and returns the journal path.
func journalCampaign(t *testing.T, specs []inject.FaultSpec, spec middleware.Spec, telem bool) string {
	t.Helper()
	runner := runnerFor(t, spec)
	if telem {
		runner = runner.Clone()
		runner.Opts.Telemetry.Enabled = true
		runner.Opts.Telemetry.TraceCap = 256
	}
	h := shard.HeaderFor(runner)
	h.FaultList = "testlist"
	path := filepath.Join(t.TempDir(), "source.journal")
	jw, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	sup := core.NewSupervisor(core.SupervisorOptions{})
	sup.AttachJournal(jw)
	c := core.NewCampaign(runner, core.WithSpecs(specs), core.WithSupervision(sup), core.WithParallelism(4))
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatalf("source campaign: %v", err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fromScratch runs the spec list unsupervised under the substrate — the
// ground truth a replayed archive must match byte for byte. It boots
// every run fresh, so no run is a dormant-run copy resting on the same
// rule (core.Dormant) as the oracle's fault-free synthesis.
func fromScratch(t *testing.T, specs []inject.FaultSpec, spec middleware.Spec) *core.SetResult {
	t.Helper()
	set, err := core.NewCampaign(runnerFor(t, spec),
		core.WithSpecs(specs), core.WithParallelism(4), core.WithFreshBoot()).Run(context.Background())
	if err != nil {
		t.Fatalf("from-scratch campaign: %v", err)
	}
	return set
}

func archiveBytes(t *testing.T, set *core.SetResult) string {
	t.Helper()
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func replayTo(t *testing.T, path string, target middleware.Spec, par int, noElide bool) (*core.SetResult, *replay.Oracle) {
	t.Helper()
	src, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, oracle, err := replay.Build(src, replay.Options{Target: target, Parallelism: par, NoElide: noElide})
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("replay campaign: %v", err)
	}
	return set, oracle
}

// TestReplayCrossFamilyEquivalence is the headline property: a campaign
// journaled under no middleware, replayed to watchd-v3 with elision on,
// yields an archive byte-identical to a from-scratch watchd-v3 campaign
// at every worker-pool width — while eliding every fault the target
// workload can never activate.
func TestReplayCrossFamilyEquivalence(t *testing.T) {
	specs := testSpecs(45)
	source := middleware.Spec{Supervision: workload.Standalone}
	target, _ := middleware.Parse("watchd-v3")
	path := journalCampaign(t, specs, source, false)
	want := archiveBytes(t, fromScratch(t, specs, target))

	for _, par := range []int{1, 4, 16} {
		set, oracle := replayTo(t, path, target, par, false)
		got := archiveBytes(t, set)
		if got != want {
			t.Fatalf("parallel=%d: replayed archive differs from from-scratch target archive", par)
		}
		st := oracle.Stats()
		if st.FaultFree == 0 || st.Elided == 0 {
			t.Fatalf("parallel=%d: expected fault-free elisions, got %+v", par, st)
		}
		if st.Copied != 0 {
			t.Fatalf("parallel=%d: cross-family replay must not copy verbatim, got %+v", par, st)
		}
		if st.Executed+st.Elided != st.Total || set.Replay == nil || set.Replay.Elided != st.Elided {
			t.Fatalf("parallel=%d: inconsistent stats %+v vs %+v", par, st, set.Replay)
		}
		for i, r := range set.Runs {
			if !r.Replayed {
				t.Fatalf("run %d missing replay provenance", i)
			}
		}
	}
}

// TestReplayWatchdGenerationCopy: watchd v2 -> v3 admits verbatim copy
// for quiet runs, and the result still matches from-scratch v3 exactly.
func TestReplayWatchdGenerationCopy(t *testing.T) {
	specs := testSpecs(45)
	source, _ := middleware.Parse("watchd-v2")
	target, _ := middleware.Parse("watchd-v3")
	path := journalCampaign(t, specs, source, true)
	want := archiveBytes(t, fromScratch(t, specs, target))

	set, oracle := replayTo(t, path, target, 4, false)
	if got := archiveBytes(t, set); got != want {
		t.Fatal("replayed v2->v3 archive differs from from-scratch v3 archive")
	}
	st := oracle.Stats()
	if st.Copied == 0 {
		t.Fatalf("expected verbatim copies for quiet watchd runs, got %+v", st)
	}
}

// TestReplayNoElide: with the oracle disabled every run goes to the
// target's runner (which still copies dormant runs) and the archive
// still matches.
func TestReplayNoElide(t *testing.T) {
	specs := testSpecs(18)
	source := middleware.Spec{Supervision: workload.Standalone}
	target, _ := middleware.Parse("mscs")
	path := journalCampaign(t, specs, source, false)
	want := archiveBytes(t, fromScratch(t, specs, target))

	set, oracle := replayTo(t, path, target, 4, true)
	if got := archiveBytes(t, set); got != want {
		t.Fatal("no-elide replay archive differs from from-scratch archive")
	}
	if st := oracle.Stats(); st.Elided != 0 || st.Executed != st.Total {
		t.Fatalf("no-elide must execute everything, got %+v", st)
	}
}

// TestOracleSoundnessSampled is the property test behind elision: for a
// sample of elided runs, actually re-executing them under the target
// substrate must reproduce the adopted record bit for bit. The runner
// boots every run fresh: its dormant-run copies rest on the rule the
// oracle elides by, so they could not catch a wrong rule.
func TestOracleSoundnessSampled(t *testing.T) {
	specs := testSpecs(45)
	source := middleware.Spec{Supervision: workload.Standalone}
	target, _ := middleware.Parse("watchd-v1")
	path := journalCampaign(t, specs, source, false)

	set, oracle := replayTo(t, path, target, 4, false)
	if oracle.Stats().Elided == 0 {
		t.Fatal("nothing elided; the property is vacuous")
	}
	runner := runnerFor(t, target)
	runner.Opts.FreshBoot = true
	sampled := 0
	for i := range set.Runs {
		if !set.Runs[i].Elided || sampled >= 8 {
			continue
		}
		sampled++
		spec := set.Runs[i].Fault
		res, err := runner.Run(&spec)
		if err != nil {
			t.Fatalf("re-execute %s: %v", spec.Key(), err)
		}
		wantB, _ := json.Marshal(*res)
		gotB, _ := json.Marshal(set.Runs[i])
		if string(wantB) != string(gotB) {
			t.Fatalf("elided run %s diverges from real execution:\n elided: %s\n actual: %s",
				spec.Key(), gotB, wantB)
		}
	}
	if sampled == 0 {
		t.Fatal("no elided runs sampled")
	}
}

// TestLoadNamesLowestIndexedBadRecord: Load decodes every run's result
// and full trace, and a journal with two bad records fails naming the
// lower-indexed one on every call, at any GOMAXPROCS.
func TestLoadNamesLowestIndexedBadRecord(t *testing.T) {
	source, _ := middleware.Parse("watchd-v2")
	path := journalCampaign(t, testSpecs(12), source, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		field func(*journal.Record) *json.RawMessage
		bad   *regexp.Regexp
		with  string
	}{
		{"trace event", func(r *journal.Record) *json.RawMessage { return &r.Tel }, regexp.MustCompile(`"at":\d+`), `"at":"x"`},
		{"result", func(r *journal.Record) *json.RawMessage { return &r.Result }, regexp.MustCompile(`"restarts":\d+`), `"restarts":"x"`},
	} {
		bad, low, high := corruptTwoRuns(t, path, c.field, c.bad, c.with)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for call := 0; call < 20; call++ {
				_, err := replay.Load(bad)
				if err == nil || !strings.Contains(err.Error(), strconv.Quote(low)) || strings.Contains(err.Error(), strconv.Quote(high)) {
					t.Fatalf("%s, GOMAXPROCS %d, call %d: error %v, want one naming %q", c.name, procs, call, err, low)
				}
			}
		}
	}
}

// corruptTwoRuns copies the journal with the first match of bad in the
// payload field of its lowest- and highest-indexed run records replaced
// by with, and returns the copy's path and the two records' keys.
func corruptTwoRuns(t *testing.T, path string, field func(*journal.Record) *json.RawMessage, bad *regexp.Regexp, with string) (string, string, string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	recs := map[int]*journal.Record{}
	lineOf := map[int]int{}
	for n, line := range lines {
		var rec journal.Record
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Kind == journal.KindRun {
			recs[rec.Index], lineOf[rec.Index] = &rec, n
		}
	}
	lo, hi := math.MaxInt, -1
	for i := range recs {
		lo, hi = min(lo, i), max(hi, i)
	}
	if lo >= hi {
		t.Fatalf("journal has %d run records, want at least two", len(recs))
	}
	for _, i := range []int{lo, hi} {
		p := field(recs[i])
		loc := bad.FindIndex(*p)
		if loc == nil {
			t.Fatalf("run %q: no %v in %s", recs[i].Key, bad, *p)
		}
		*p = json.RawMessage(string((*p)[:loc[0]]) + with + string((*p)[loc[1]:]))
		b, err := json.Marshal(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		lines[lineOf[i]] = string(b) + "\n"
	}
	out := filepath.Join(t.TempDir(), "bad.journal")
	if err := os.WriteFile(out, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return out, recs[lo].Key, recs[hi].Key
}
