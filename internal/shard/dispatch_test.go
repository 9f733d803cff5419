package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/journal"
)

// fleetCampaign runs a spec campaign through a Fleet built from opts.
func fleetCampaign(t *testing.T, n int, f *Fleet, extra ...core.Option) (*core.SetResult, error) {
	t.Helper()
	opts := append([]core.Option{
		core.WithSpecs(campaignSpecs(n)),
		core.WithShardExecutor(f),
	}, extra...)
	return core.NewCampaign(newRunner(true), opts...).Run(context.Background())
}

// TestFleetMatchesUnsharded is the tentpole guarantee: a 200-spec
// campaign dispatched by the work-stealing fleet at several shapes
// merges archive, trace and metrics byte-identical to the -parallel 1
// run. CI runs this under -race.
func TestFleetMatchesUnsharded(t *testing.T) {
	specs := campaignSpecs(200)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)

	for _, workers := range []int{1, 2, 4} {
		f := NewFleet(FleetOptions{Workers: workers, WorkerParallelism: 2})
		set, err := fleetCampaign(t, 200, f)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		archive, trace, metrics := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) {
			t.Errorf("workers %d: archive differs from unsharded run", workers)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("workers %d: telemetry trace differs from unsharded run", workers)
		}
		if metrics != wantMetrics {
			t.Errorf("workers %d: metrics text differs from unsharded run", workers)
		}
		st := set.Dispatch
		if st == nil || st.Workers != workers || st.Transport != "inprocess" {
			t.Fatalf("workers %d: dispatch stats %+v", workers, st)
		}
		if st.Degraded || st.LocalRuns != 0 || st.WorkersLost != 0 {
			t.Errorf("workers %d: clean fleet run reported degraded: %+v", workers, st)
		}
		if st.Chunks < workers {
			t.Errorf("workers %d: only %d chunks dispatched", workers, st.Chunks)
		}
	}
}

// TestFleetStragglerSpeculation pins the tail-latency defence: with one
// deliberately slow worker, idle fast workers speculatively re-execute
// its chunk, the first complete copy wins, and the duplicate results are
// discarded without disturbing the merged artifacts.
func TestFleetStragglerSpeculation(t *testing.T) {
	specs := campaignSpecs(40)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, _, _ := artifacts(t, base)

	f := NewFleet(FleetOptions{
		Workers:   2,
		ChunkSize: 20,
		ChaosSlow: "0:30", // worker 0 sleeps 30ms before every run
	})
	set, err := fleetCampaign(t, 40, f)
	if err != nil {
		t.Fatal(err)
	}
	archive, _, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Error("archive differs from unsharded run under speculation")
	}
	if st := set.Dispatch; st.Speculated < 1 {
		t.Errorf("no speculative re-issue against a 30ms/run straggler: %+v", st)
	}
}

// TestFleetWorkerDeathRedispatch severs the first worker's stream after
// three records: its chunk's uncommitted remainder must be
// re-dispatched and the merged artifacts stay byte-identical.
func TestFleetWorkerDeathRedispatch(t *testing.T) {
	specs := campaignSpecs(60)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, _ := artifacts(t, base)

	inner := InProcess()
	death := newStagedDeath(3)
	spawn := func() (*Conn, error) {
		conn, err := inner()
		if err != nil {
			return nil, err
		}
		death.wrap(conn)
		return conn, nil
	}
	f := NewFleet(FleetOptions{
		Workers: 2, Spawn: spawn,
	})
	set, err := fleetCampaign(t, 60, f)
	if err != nil {
		t.Fatal(err)
	}
	archive, trace, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) || !bytes.Equal(trace, wantTrace) {
		t.Error("artifacts differ from unsharded run after worker death")
	}
	st := set.Dispatch
	if st.WorkerDeaths < 1 {
		t.Errorf("severed worker not counted as a death: %+v", st)
	}
	if st.Degraded {
		t.Errorf("death within the respawn budget must not degrade: %+v", st)
	}
}

// TestFleetWedgedWorkerProgressDeadline arms the chaos hang on worker 0:
// after two records it wedges with heartbeats still flowing. The stall
// deadline never fires (the stream is alive); the progress deadline
// must kill it, and the respawned worker finishes the chunk.
func TestFleetWedgedWorkerProgressDeadline(t *testing.T) {
	specs := campaignSpecs(40)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, _, _ := artifacts(t, base)

	// One slot: no sibling can speculate the wedged chunk away, so the
	// progress deadline is the only way the campaign can finish.
	f := NewFleet(FleetOptions{
		Workers:          1,
		Heartbeat:        10 * time.Millisecond,
		StallDeadline:    2 * time.Second,
		ProgressDeadline: 150 * time.Millisecond,
		ChaosHang:        "0:2",
	})
	set, err := fleetCampaign(t, 40, f)
	if err != nil {
		t.Fatal(err)
	}
	archive, _, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Error("archive differs from unsharded run after a wedged worker")
	}
	if st := set.Dispatch; st.WorkerDeaths < 1 {
		t.Errorf("wedged worker was never killed: %+v", st)
	}
}

// TestFleetDegradedCompletion exhausts every respawn budget — every
// spawned worker drops dead on assignment — and the campaign must still
// complete, in-process, reporting itself degraded instead of failing.
func TestFleetDegradedCompletion(t *testing.T) {
	specs := campaignSpecs(20)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, _ := artifacts(t, base)

	dead := fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
		io.Copy(io.Discard, in) // accept the assignment, then drop dead
	})
	// The drain runs at the width of the workers it replaces.
	for _, width := range []int{1, 4} {
		f := NewFleet(FleetOptions{
			Workers: 2, Spawn: dead,
			WorkerParallelism: width,
			MaxRespawns:       1,
			StallDeadline:     time.Second,
		})
		set, err := fleetCampaign(t, 20, f)
		if err != nil {
			t.Fatalf("width %d: budget exhaustion must degrade, not fail: %v", width, err)
		}
		archive, trace, _ := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) || !bytes.Equal(trace, wantTrace) {
			t.Errorf("width %d: degraded completion artifacts differ from unsharded run", width)
		}
		st := set.Dispatch
		if !st.Degraded {
			t.Fatalf("width %d: in-process fallback not reported degraded: %+v", width, st)
		}
		if st.LocalRuns != len(base.Runs) {
			t.Errorf("width %d: %d of %d runs executed locally", width, st.LocalRuns, len(base.Runs))
		}
		if st.WorkersLost != 2 {
			t.Errorf("width %d: %d slots reported lost, want 2", width, st.WorkersLost)
		}
	}
}

// TestFleetJournalProvenance attaches a journal: every committed run
// must land exactly once, the dispatch trail must record assignments
// covering the whole job list, and a degraded run must say so. The
// degraded fleet's workers all drop dead, so its in-process drain runs
// every index: "local" events must cover the job list, one "degraded"
// line must close the trail, and in both cases the journaled records
// must decode to the unsharded runs.
func TestFleetJournalProvenance(t *testing.T) {
	specs := campaignSpecs(30)
	base, err := core.NewCampaign(newRunner(false),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dead := fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
		io.Copy(io.Discard, in) // accept the assignment, then drop dead
	})
	for _, tc := range []struct {
		name     string
		opts     FleetOptions
		degraded bool
	}{
		{"clean", FleetOptions{Workers: 2}, false},
		{"degraded", FleetOptions{Workers: 2, Spawn: dead, MaxRespawns: 1, StallDeadline: time.Second}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.journal")
			r := newRunner(false)
			jw, err := journal.Create(path, HeaderFor(r))
			if err != nil {
				t.Fatal(err)
			}
			tc.opts.Journal = jw
			set, err := core.NewCampaign(r,
				core.WithSpecs(specs),
				core.WithShardExecutor(NewFleet(tc.opts)),
			).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			if set.Dispatch.Degraded != tc.degraded {
				t.Fatalf("dispatch stats %+v, want Degraded %v", set.Dispatch, tc.degraded)
			}

			rep, err := journal.Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Torn {
				t.Fatal("fleet journal replayed as torn")
			}
			if rep.Plan == nil || len(rep.Plan.Jobs) != len(set.Runs) {
				t.Fatalf("journal plan missing or short: %+v", rep.Plan)
			}
			if len(rep.Runs) != len(set.Runs) || rep.Records != len(set.Runs) {
				t.Fatalf("journal holds %d run lines for %d indices, campaign ran %d",
					rep.Records, len(rep.Runs), len(set.Runs))
			}
			covered := make(map[int]bool)
			local := make(map[int]bool)
			var sawAssign bool
			var degradedLines int
			for _, ev := range rep.Dispatch {
				switch ev.Event {
				case "assign", "speculate", "local", "redispatch":
					sawAssign = sawAssign || ev.Event == "assign"
					for _, g := range ev.Indices {
						covered[g] = true
						local[g] = local[g] || ev.Event == "local"
					}
				case "degraded":
					degradedLines++
				}
			}
			if !tc.degraded && degradedLines != 0 {
				t.Errorf("clean run journaled a degraded event")
			}
			if tc.degraded && degradedLines != 1 {
				t.Errorf("degraded run journaled %d degraded events, want 1", degradedLines)
			}
			if !sawAssign {
				t.Fatal("no assign events in the dispatch trail")
			}
			for g := range set.Runs {
				if !covered[g] {
					t.Fatalf("job %d never appears in the dispatch trail", g)
				}
				if tc.degraded && !local[g] {
					t.Fatalf("job %d never appears in a local event of the degraded trail", g)
				}
			}
			for g, want := range base.Runs {
				rec := rep.Runs[g]
				res, err := core.UnmarshalRunRecord(rec.Result, rec.Tel)
				if err != nil {
					t.Fatalf("run %d: %v", g, err)
				}
				if !reflect.DeepEqual(*res, want) {
					t.Fatalf("journaled run %d decodes to %+v, unsharded run is %+v", g, *res, want)
				}
			}
		})
	}
}

// TestFleetJournalWriteFailureIsFatal: a fleet whose journal cannot be
// written fails the campaign at the first failed write, as a supervised
// campaign does, instead of running every job and reporting success.
// The writer is closed before the plan line, or after the first
// committed run line.
func TestFleetJournalWriteFailureIsFatal(t *testing.T) {
	for _, closeAfter := range []int{0, 1} {
		path := filepath.Join(t.TempDir(), "fleet.journal")
		r := newRunner(true)
		jw, err := journal.Create(path, HeaderFor(r))
		if err != nil {
			t.Fatal(err)
		}
		if closeAfter == 0 {
			jw.Close()
		}
		var runs atomic.Int32
		_, err = core.NewCampaign(r,
			core.WithSpecs(campaignSpecs(60)),
			core.WithShardExecutor(NewFleet(FleetOptions{Workers: 2, WorkerParallelism: 1, Journal: jw})),
			core.WithProgress(func(done, total int) {
				runs.Add(1)
				if done == closeAfter {
					jw.Close()
				}
			}),
		).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "journal write") {
			t.Fatalf("close after %d runs: error = %v, want the journal write failure", closeAfter, err)
		}
		if n := runs.Load(); n == 60 {
			t.Errorf("close after %d runs: the fleet ran every job after the journal failed", closeAfter)
		}
		if got := jw.Records(); got != closeAfter {
			t.Errorf("close after %d runs: %d records journaled", closeAfter, got)
		}
	}
}

// TestFleetCancellation: cancelling mid-campaign surfaces
// ErrInterrupted with no set, matching the in-process pool.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(campaignSpecs(120)),
		core.WithShardExecutor(NewFleet(FleetOptions{Workers: 2})),
		core.WithProgress(func(done, total int) {
			if done == 5 {
				cancel()
			}
		}),
	).Run(ctx)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("error = %v, want ErrInterrupted", err)
	}
	if set != nil {
		t.Fatal("cancelled fleet campaign must not return a set")
	}
}

// TestFleetWorkerErrorIsFatal: an error record is a deterministic run
// failure — the fleet fails the campaign without burning respawns.
func TestFleetWorkerErrorIsFatal(t *testing.T) {
	var spawned atomic.Int32
	// The fleet holds the assignment stream open for more chunks — the
	// fake worker must volunteer its error record rather than wait for
	// stdin EOF.
	spawn := fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
		go io.Copy(io.Discard, in) // keep the assignment stream drained
		io.WriteString(out, `{"kind":"error","index":3,"message":"run exploded"}`+"\n")
	})
	counted := func() (*Conn, error) {
		spawned.Add(1)
		return spawn()
	}
	_, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(campaignSpecs(8)),
		core.WithShardExecutor(NewFleet(FleetOptions{Workers: 2, Spawn: counted})),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "run exploded") {
		t.Fatalf("error = %v, want the worker's error message", err)
	}
	if n := spawned.Load(); n != 2 {
		t.Fatalf("%d workers spawned, want 2 (error records must not respawn)", n)
	}
}

// TestFleetProgressContract: the fleet runs the generated catalog sweep
// with paper-faithful skip probes — probes keep their positions and the
// merged set deep-equals the unsharded one — and preserves the Progress
// contract under work stealing: serialized, strictly +1, probes
// excluded.
func TestFleetProgressContract(t *testing.T) {
	base, err := core.NewCampaign(newRunner(false),
		core.WithPaperFaithfulSkips()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	var total int
	set, err := core.NewCampaign(newRunner(false),
		core.WithPaperFaithfulSkips(),
		core.WithShardExecutor(NewFleet(FleetOptions{Workers: 3, WorkerParallelism: 2})),
		core.WithProgress(func(done, n int) {
			calls = append(calls, done)
			total = n
		}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, withoutDispatch(set)) {
		t.Fatal("fleet generated campaign diverges from unsharded")
	}
	if len(calls) != total || total == 0 || total == len(set.Runs) {
		t.Fatalf("%d progress calls, total %d, %d runs (probes must not count)",
			len(calls), total, len(set.Runs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress call %d reported done=%d; counter must increase strictly by one", i, done)
		}
	}
}

// reapCounter wraps a Spawner and records every Wait call on the Conns
// it hands out.
type reapCounter struct {
	mu    sync.Mutex
	conns []*reapedConn
}

type reapedConn struct {
	calls  atomic.Int32
	called chan struct{} // closed by the first Wait call
}

func (r *reapCounter) wrap(inner Spawner) Spawner {
	return func() (*Conn, error) {
		conn, err := inner()
		if err != nil {
			return nil, err
		}
		rc := &reapedConn{called: make(chan struct{})}
		r.mu.Lock()
		r.conns = append(r.conns, rc)
		r.mu.Unlock()
		wait := conn.Wait
		conn.Wait = func() error {
			if rc.calls.Add(1) == 1 {
				close(rc.called)
			}
			return wait()
		}
		return conn, nil
	}
}

// TestFleetReapsWorkers: every spawned worker Conn is Waited exactly
// once shortly after the campaign returns — cleanly finished, killed
// after a severed stream, and wedged alike. The wedged in-process worker
// never returns from Wait, so the campaign returning at all proves that
// reaping never blocks a session.
func TestFleetReapsWorkers(t *testing.T) {
	cases := []struct {
		name  string
		opts  FleetOptions
		sever bool
	}{
		{name: "clean", opts: FleetOptions{Workers: 2}},
		{name: "death", sever: true, opts: FleetOptions{
			Workers: 2}},
		{name: "wedge", opts: FleetOptions{
			Workers:          1,
			Heartbeat:        10 * time.Millisecond,
			StallDeadline:    2 * time.Second,
			ProgressDeadline: 150 * time.Millisecond,
			ChaosHang:        "0:2",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := InProcess()
			death := newStagedDeath(3)
			spawn := func() (*Conn, error) {
				conn, err := inner()
				if err == nil && tc.sever {
					death.wrap(conn)
				}
				return conn, err
			}
			var rc reapCounter
			tc.opts.Spawn = rc.wrap(spawn)
			set, err := fleetCampaign(t, 30, NewFleet(tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "clean" && set.Dispatch.WorkerDeaths < 1 {
				t.Fatalf("no worker died: %+v", set.Dispatch)
			}
			rc.mu.Lock()
			conns := append([]*reapedConn(nil), rc.conns...)
			rc.mu.Unlock()
			if len(conns) < tc.opts.Workers {
				t.Fatalf("%d workers spawned, want at least %d", len(conns), tc.opts.Workers)
			}
			timeout := time.After(5 * time.Second)
			for i, c := range conns {
				select {
				case <-c.called:
				case <-timeout:
					t.Fatalf("worker %d of %d never reaped", i, len(conns))
				}
			}
			for i, c := range conns {
				if n := c.calls.Load(); n != 1 {
					t.Errorf("worker %d reaped %d times, want once", i, n)
				}
			}
		})
	}
}
