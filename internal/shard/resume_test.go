package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/journal"
)

// journaledCampaign runs the 60-spec traced campaign journaled to path,
// in-process (as dts -journal runs it) or on a 2-worker in-process
// fleet. With a non-nil rep it resumes the
// journal rep was replayed from. It returns the set, the number of
// workers the fleet spawned and the done counts progress reported.
func journaledCampaign(t *testing.T, path string, rep *journal.Replayed, fleet bool) (*core.SetResult, int32, []int) {
	t.Helper()
	r := newRunner(true)
	var jw *journal.Writer
	var err error
	if rep != nil {
		jw, err = journal.Append(path, rep.ValidBytes, rep.Records)
	} else {
		jw, err = journal.Create(path, HeaderFor(r))
	}
	if err != nil {
		t.Fatal(err)
	}
	var spawned atomic.Int32
	var exec core.ShardExecutor // nil keeps the in-process pool
	if fleet {
		inner := InProcess()
		exec = NewFleet(FleetOptions{Workers: 2, Spawn: func() (*Conn, error) {
			spawned.Add(1)
			return inner()
		}})
	}
	var done []int
	progress := core.WithProgress(func(d, total int) {
		if total != 60 {
			t.Errorf("progress total %d, want 60", total)
		}
		done = append(done, d)
	})
	set, err := core.NewCampaign(r, core.WithSpecs(campaignSpecs(60)), core.WithJournal(jw, rep), core.WithShardExecutor(exec), progress).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return set, spawned.Load(), done
}

// sortedRunLines returns a journal's run lines in sorted order: the
// journal's content independent of completion order.
func sortedRunLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, `{"kind":"run",`) {
			runs = append(runs, line)
		}
	}
	slices.Sort(runs)
	return runs
}

// TestFleetResumeEquivalence is resume's guarantee across executors: a
// journal written locally or by a fleet, cut mid-line near its middle
// (what SIGKILL leaves), resumes locally or on a fleet to the archive,
// merged trace, metrics and sorted run lines of the uninterrupted
// campaign; and a resume of a finished journal spawns no worker.
// Progress fires once per executed run, never for an adopted one, going
// up by one from the adopted count to (60, 60).
func TestFleetResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.journal")
	base, _, _ := journaledCampaign(t, golden, nil, false)
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)
	wantRuns := sortedRunLines(t, golden)
	if len(wantRuns) != 60 {
		t.Fatalf("golden journal holds %d run lines, want 60", len(wantRuns))
	}
	mode := map[bool]string{false: "local", true: "fleet"}
	check := func(name, path string, set *core.SetResult, adopted int, done []int) {
		t.Helper()
		if len(done) != 60-adopted || len(done) > 0 && (done[0] != adopted+1 || done[len(done)-1] != 60) {
			t.Errorf("%s: %d runs adopted, progress reported %v", name, adopted, done)
		}
		for k := 1; k < len(done); k++ {
			if done[k] != done[k-1]+1 {
				t.Errorf("%s: progress went from %d to %d", name, done[k-1], done[k])
			}
		}
		archive, trace, metrics := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) || !bytes.Equal(trace, wantTrace) || metrics != wantMetrics {
			t.Errorf("%s: archive, trace or metrics differ from the uninterrupted campaign", name)
		}
		if !slices.Equal(sortedRunLines(t, path), wantRuns) {
			t.Errorf("%s: journal run lines differ from the uninterrupted campaign's", name)
		}
	}
	for _, source := range []bool{false, true} {
		path := filepath.Join(dir, mode[source]+".journal")
		journaledCampaign(t, path, nil, source)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, resume := range []bool{false, true} {
			name := fmt.Sprintf("%s journal resumed %s", mode[source], mode[resume])
			cut := filepath.Join(dir, mode[source]+"-cut-"+mode[resume]+".journal")
			if err := os.WriteFile(cut, full[:len(full)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := journal.Replay(cut)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rep.Torn || len(rep.Runs) == 0 || len(rep.Runs) == 60 {
				t.Fatalf("%s: cut kept %d runs (torn %v), want a torn mid-campaign journal", name, len(rep.Runs), rep.Torn)
			}
			set, _, done := journaledCampaign(t, cut, rep, resume)
			check(name, cut, set, len(rep.Runs), done)
		}
		rep, err := journal.Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		set, spawned, done := journaledCampaign(t, path, rep, true)
		if spawned != 0 {
			t.Errorf("finished %s journal resumed on a fleet: %d workers spawned, want 0", mode[source], spawned)
		}
		check("finished "+mode[source]+" journal resumed on a fleet", path, set, 60, done)
	}
}
