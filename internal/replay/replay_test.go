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
	"ntdts/internal/telemetry"
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
	return journalRun(t, runner, specs)
}

// journalRun runs the spec list supervised+journaled on runner, with
// any further campaign options, and returns the journal path.
func journalRun(t *testing.T, runner *core.Runner, specs []inject.FaultSpec, opts ...core.Option) string {
	t.Helper()
	h := shard.HeaderFor(runner)
	h.FaultList = "testlist"
	path := filepath.Join(t.TempDir(), "source.journal")
	jw, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]core.Option{core.WithSpecs(specs), core.WithJournal(jw, nil), core.WithParallelism(4)}, opts...)
	if _, err := core.NewCampaign(runner, opts...).Run(context.Background()); err != nil {
		t.Fatalf("source campaign: %v", err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fromScratch runs the spec list on runner — the ground truth a
// replayed archive must match byte for byte. It boots every run fresh,
// so no run is a dormant-run copy resting on the same rule
// (core.Dormant) as the oracle's fault-free synthesis.
func fromScratch(t *testing.T, runner *core.Runner, specs []inject.FaultSpec) *core.SetResult {
	t.Helper()
	set, err := core.NewCampaign(runner,
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

func replayTo(t *testing.T, path string, target middleware.Spec, par int) (*core.SetResult, *replay.Oracle) {
	t.Helper()
	src, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, oracle, err := replay.Build(src, replay.Options{Target: target, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("replay campaign: %v", err)
	}
	return set, oracle
}

// TestReplayWatchdGenerationCopy: watchd v2 -> v3 admits verbatim copy
// for quiet runs, and the result still matches from-scratch v3 exactly.
// The oracle reads the run record, never its trace, so an untraced
// source elides exactly as a traced one does.
func TestReplayWatchdGenerationCopy(t *testing.T) {
	specs := testSpecs(45)
	source, _ := middleware.Parse("watchd-v2")
	target, _ := middleware.Parse("watchd-v3")
	want := archiveBytes(t, fromScratch(t, runnerFor(t, target), specs))

	var traced replay.Stats
	for _, telem := range []bool{true, false} {
		set, oracle := replayTo(t, journalCampaign(t, specs, source, telem), target, 4)
		if got := archiveBytes(t, set); got != want {
			t.Fatalf("traced source %v: replayed v2->v3 archive differs from from-scratch v3 archive", telem)
		}
		st := oracle.Stats()
		if st.Copied == 0 {
			t.Fatalf("traced source %v: expected verbatim copies for quiet watchd runs, got %+v", telem, st)
		}
		if telem {
			traced = st
		} else if st != traced {
			t.Fatalf("untraced source elided %+v, traced source %+v", st, traced)
		}
	}
}

// TestRunRecordCarriesTraceCounters pins the premise the oracle's copy
// proof rests on when it reads no trace: a run record's Restarts and
// Retries are what its trace's run.restarts and supervise.retry
// counters say, and no run record's trace counts a quarantine, because
// a quarantined run is journaled as a quarantine record. The traced
// IIS/watchd-v2 list restarts the service, retries a flaky run and
// quarantines a panicking one, journaled in-process and on a 2-worker
// in-process fleet.
func TestRunRecordCarriesTraceCounters(t *testing.T) {
	specs := append(testSpecs(12),
		inject.FaultSpec{Function: "CreateFileA", Invocation: 1, Type: inject.OneBits},
		inject.FaultSpec{Function: "CreateFileA", Invocation: 1, Type: inject.FlipBits},
		inject.FaultSpec{Function: core.ChaosFlakyFunction, Invocation: 1, Type: inject.ZeroBits},
		inject.FaultSpec{Function: core.ChaosPanicFunction, Invocation: 1, Type: inject.ZeroBits})
	source, _ := middleware.Parse("watchd-v2")
	runner := runnerFor(t, source)
	runner.Opts.Telemetry = telemetry.Options{Enabled: true, TraceCap: 256}
	chaos := core.WithSupervision(core.SupervisorOptions{Chaos: true})
	for _, c := range []struct {
		name string
		opts []core.Option
	}{
		{"in-process", []core.Option{chaos}},
		{"fleet", []core.Option{chaos, core.WithShardExecutor(shard.NewFleet(shard.FleetOptions{Workers: 2}))}},
	} {
		rep, err := journal.Replay(journalRun(t, runner, specs, c.opts...))
		if err != nil {
			t.Fatal(err)
		}
		restarts, retries := 0, 0
		for _, rec := range rep.Runs {
			var res core.RunResult
			var snap telemetry.Snapshot
			if err := json.Unmarshal(rec.Result, &res); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rec.Tel, &snap); err != nil {
				t.Fatal(err)
			}
			ctr := snap.Counters
			if ctr[telemetry.CtrRunRestarts] != int64(res.Restarts) || ctr[telemetry.CtrSupRetry] != int64(res.Retries) {
				t.Fatalf("%s: run %q records %d restarts and %d retries, its trace %d and %d", c.name, rec.Key,
					res.Restarts, res.Retries, ctr[telemetry.CtrRunRestarts], ctr[telemetry.CtrSupRetry])
			}
			if n, ok := ctr[telemetry.CtrSupQuarantine]; ok {
				t.Fatalf("%s: run %q's trace counts %d quarantines", c.name, rec.Key, n)
			}
			restarts += res.Restarts
			retries += res.Retries
		}
		t.Logf("%s: %d restarts, %d retries, %d quarantines", c.name, restarts, retries, len(rep.Quarantined))
		if restarts == 0 || retries == 0 || len(rep.Quarantined) == 0 {
			t.Fatalf("%s: %d restarts, %d retries and %d quarantines, want each above 0",
				c.name, restarts, retries, len(rep.Quarantined))
		}
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

	src, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, oracle, err := replay.Build(src, replay.Options{Target: target, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	elided, err := oracle.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Stats().Elided == 0 {
		t.Fatal("nothing elided; the property is vacuous")
	}
	runner := runnerFor(t, target)
	runner.Opts.FreshBoot = true
	sampled := 0
	for _, r := range elided {
		if r == nil || sampled >= 8 {
			continue
		}
		sampled++
		spec := r.Fault
		res, err := runner.Run(&spec)
		if err != nil {
			t.Fatalf("re-execute %s: %v", spec.Key(), err)
		}
		wantB, _ := json.Marshal(*res)
		gotB, _ := json.Marshal(*r)
		if string(wantB) != string(gotB) {
			t.Fatalf("elided run %s diverges from real execution:\n elided: %s\n actual: %s",
				spec.Key(), gotB, wantB)
		}
	}
	if sampled == 0 {
		t.Fatal("no elided runs sampled")
	}
}

// TestLoadNamesLowestIndexedBadRecord: Load decodes every run's result,
// and a journal with two bad results fails naming the lower-indexed one
// on every call, at any GOMAXPROCS. Load reads no trace: the same two
// records with a corrupt trace event load, and replay to the clean
// source's archive and Stats.
func TestLoadNamesLowestIndexedBadRecord(t *testing.T) {
	source, _ := middleware.Parse("watchd-v2")
	path := journalCampaign(t, testSpecs(12), source, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bad, low, high := corruptTwoRuns(t, path, func(r *journal.Record) *json.RawMessage { return &r.Result },
		regexp.MustCompile(`"restarts":\d+`), `"restarts":"x"`)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for call := 0; call < 20; call++ {
			_, err := replay.Load(bad)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(low)) || strings.Contains(err.Error(), strconv.Quote(high)) {
				t.Fatalf("GOMAXPROCS %d, call %d: error %v, want one naming %q", procs, call, err, low)
			}
		}
	}

	badTrace, _, _ := corruptTwoRuns(t, path, func(r *journal.Record) *json.RawMessage { return &r.Tel },
		regexp.MustCompile(`"at":\d+`), `"at":"x"`)
	target, _ := middleware.Parse("watchd-v3")
	want, wantOracle := replayTo(t, path, target, 4)
	got, gotOracle := replayTo(t, badTrace, target, 4)
	if archiveBytes(t, got) != archiveBytes(t, want) {
		t.Fatal("the source with corrupt traces replays to another archive than the clean source")
	}
	if st := gotOracle.Stats(); st != wantOracle.Stats() || st.Copied == 0 {
		t.Fatalf("the source with corrupt traces elided %+v, the clean source %+v", st, wantOracle.Stats())
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
