package shard

import (
	"bytes"
	"context"
	"encoding/json"
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
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// campaignSpecs builds a deterministic n-fault list spanning the KERNEL32
// catalog — the same shape dts fault-list campaigns (and the CI shard
// job) run.
func campaignSpecs(n int) []inject.FaultSpec {
	types := inject.AllFaultTypes()
	var specs []inject.FaultSpec
	for i, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		specs = append(specs, inject.FaultSpec{
			Function:   e.Name,
			Param:      i % e.Params,
			Invocation: 1,
			Type:       types[i%len(types)],
		})
		if len(specs) == n {
			break
		}
	}
	return specs
}

func newRunner(tel bool) *core.Runner {
	opts := core.DefaultRunnerOptions()
	opts.Telemetry = telemetry.Options{Enabled: tel}
	return core.NewRunner(workload.NewApache1(workload.Standalone), opts)
}

// artifacts renders the three byte-compared campaign outputs: the archive
// JSON, the merged telemetry trace, and the metrics text.
func artifacts(t *testing.T, set *core.SetResult) (archive, trace []byte, metrics string) {
	t.Helper()
	archive, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if set.Telemetry != nil {
		var buf bytes.Buffer
		if err := set.Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		trace = buf.Bytes()
		metrics = set.Telemetry.MetricsText()
	}
	return archive, trace, metrics
}

func TestParseChaosKill(t *testing.T) {
	if s, a, err := parseChaosKill(""); err != nil || s != -1 || a != 0 {
		t.Fatalf("empty spec: %d %d %v", s, a, err)
	}
	if s, a, err := parseChaosKill("2:17"); err != nil || s != 2 || a != 17 {
		t.Fatalf("2:17: %d %d %v", s, a, err)
	}
	for _, bad := range []string{"2", ":3", "2:", "x:3", "2:x", "-1:3", "2:0"} {
		if _, _, err := parseChaosKill(bad); err == nil {
			t.Errorf("parseChaosKill(%q): no error", bad)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	r := newRunner(true)
	got, err := RunnerFromHeader(HeaderFor(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Def.Name != r.Def.Name || got.Def.Supervision != r.Def.Supervision {
		t.Fatalf("definition drifted: %s/%s -> %s/%s",
			r.Def.Name, r.Def.Supervision, got.Def.Name, got.Def.Supervision)
	}
	if got.Opts.Telemetry != r.Opts.Telemetry ||
		got.Opts.ServerUpTimeout != r.Opts.ServerUpTimeout ||
		got.Opts.RunDeadline != r.Opts.RunDeadline {
		t.Fatalf("options drifted: %+v -> %+v", r.Opts, got.Opts)
	}
}

// TestShardedMatchesUnsharded pins the WithShards sizing path: a
// 200-spec campaign on a fleet that leaves its own size unset, sized at
// 1, 2, 4 and 8 workers by the campaign, produces an archive, telemetry
// trace and metrics summary byte-identical to the unsharded run. CI runs
// this under -race.
func TestShardedMatchesUnsharded(t *testing.T) {
	specs := campaignSpecs(200)
	if len(specs) != 200 {
		t.Fatalf("built %d specs, want 200", len(specs))
	}
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(4), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)

	for _, shards := range []int{1, 2, 4, 8} {
		set, err := core.NewCampaign(newRunner(true),
			core.WithSpecs(specs),
			core.WithShards(shards),
			core.WithShardExecutor(NewFleet(FleetOptions{WorkerParallelism: 2})),
		).Run(context.Background())
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		archive, trace, metrics := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) {
			t.Errorf("shards %d: archive differs from unsharded run", shards)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("shards %d: telemetry trace differs from unsharded run", shards)
		}
		if metrics != wantMetrics {
			t.Errorf("shards %d: metrics text differs from unsharded run", shards)
		}
		if st := set.Dispatch; st == nil || st.Workers != shards {
			t.Errorf("shards %d: dispatch stats %+v", shards, st)
		}
	}
}

// TestShardedGeneratedCampaign shards the generated catalog sweep with
// paper-faithful skip probes through the WithShards sizing path: probe
// runs keep their positions, stay invisible to Progress, and the merged
// set deep-equals the unsharded one. The progress contract survives
// sharding: serialized, strictly +1, ending at (total, total).
func TestShardedGeneratedCampaign(t *testing.T) {
	run := func(shards int, progress func(done, total int)) *core.SetResult {
		opts := []core.Option{
			core.WithPaperFaithfulSkips(),
			core.WithProgress(progress),
		}
		if shards > 1 {
			opts = append(opts,
				core.WithShards(shards),
				core.WithShardExecutor(NewFleet(FleetOptions{WorkerParallelism: 2})))
		}
		set, err := core.NewCampaign(newRunner(false), opts...).Run(context.Background())
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		return set
	}
	base := run(1, nil)

	var calls []int
	var total int
	set := run(3, func(done, n int) {
		calls = append(calls, done)
		total = n
	})
	if st := set.Dispatch; st == nil || st.Workers != 3 {
		t.Fatalf("dispatch stats %+v, want 3 workers", st)
	}
	if !reflect.DeepEqual(base, withoutDispatch(set)) {
		t.Fatal("sharded generated campaign diverges from unsharded")
	}
	if len(calls) != total || total == 0 || total == len(base.Runs) {
		// Probes are part of Runs but not of the progress total.
		t.Fatalf("%d progress calls, total %d, %d runs (probes must not count)",
			len(calls), total, len(base.Runs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress call %d reported done=%d; counter must increase strictly by one", i, done)
		}
	}
}

// withoutDispatch returns the set with its (archive-excluded) dispatch
// stats cleared, for deep comparison against an in-process set.
func withoutDispatch(set *core.SetResult) *core.SetResult {
	out := *set
	out.Dispatch = nil
	return &out
}

// severReader passes a worker's stream through until it has delivered
// after lines, then kills the worker — the InProcess stand-in for a
// SIGKILL mid-chunk. Bytes past the after-th newline are dropped, so the
// cut lands on that line however much one Read carries.
type severReader struct {
	r     io.Reader
	kill  func()
	after int
	seen  int
	dead  bool
}

func (s *severReader) Read(p []byte) (int, error) {
	if s.dead {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := s.r.Read(p)
	for i := 0; i < n; i++ {
		if p[i] != '\n' {
			continue
		}
		if s.seen++; s.seen == s.after {
			s.dead = true
			s.kill()
			return i + 1, nil
		}
	}
	return n, err
}

// stagedDeath stages one worker death in a multi-slot fleet. The first
// Conn it wraps is severed after `after` lines (severReader); every
// later Conn's stream is held until the coordinator reaps the severed
// worker, which it does only after handling the death. A dormant fault's
// run is a copy that takes microseconds, so without the hold a survivor
// could finish or speculate the severed chunk before the death is seen,
// and the death the test stages would not happen.
type stagedDeath struct {
	after  int
	n      atomic.Int32
	once   sync.Once
	reaped chan struct{}
}

func newStagedDeath(after int) *stagedDeath {
	return &stagedDeath{after: after, reaped: make(chan struct{})}
}

func (s *stagedDeath) wrap(conn *Conn) {
	if s.n.Add(1) > 1 {
		conn.Out = heldReader{r: conn.Out, until: s.reaped}
		return
	}
	conn.Out = &severReader{r: conn.Out, kill: conn.Kill, after: s.after}
	wait := conn.Wait
	conn.Wait = func() error {
		s.once.Do(func() { close(s.reaped) })
		return wait()
	}
}

// heldReader blocks every Read until `until` is closed, then passes the
// stream through.
type heldReader struct {
	r     io.Reader
	until <-chan struct{}
}

func (h heldReader) Read(p []byte) (int, error) {
	<-h.until
	return h.r.Read(p)
}

// TestWorkerDeathRedispatch kills the first worker after three streamed
// records with no respawn budget: the dead slot leaves the fleet, its
// chunk's remainder is re-dispatched to the surviving slot, and the
// merged set equals the unsharded run without degrading to in-process
// execution.
func TestWorkerDeathRedispatch(t *testing.T) {
	specs := campaignSpecs(60)
	base, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	inner := InProcess()
	var spawned atomic.Int32
	death := newStagedDeath(3)
	spawn := func() (*Conn, error) {
		conn, err := inner()
		if err != nil {
			return nil, err
		}
		spawned.Add(1)
		death.wrap(conn)
		return conn, nil
	}
	set, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(specs),
		core.WithShardExecutor(NewFleet(FleetOptions{
			Workers: 2, Spawn: spawn, MaxRespawns: -1,
		})),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, withoutDispatch(set)) {
		t.Fatal("merged set after worker death diverges from unsharded run")
	}
	if n := spawned.Load(); n != 2 {
		t.Fatalf("%d workers spawned, want 2 (no respawn budget)", n)
	}
	st := set.Dispatch
	if st.WorkersLost != 1 || st.Redispatched < 1 || st.Degraded {
		t.Fatalf("dispatch stats %+v, want one lost slot, a re-dispatch, no degradation", st)
	}
}

// fakeSpawner runs a hand-written protocol peer instead of ServeWorker —
// how the tests stage worker misbehaviour the real worker never
// exhibits. serve gets a killed channel that closes when the coordinator
// kills the connection.
func fakeSpawner(serve func(in io.Reader, out io.Writer, killed <-chan struct{})) Spawner {
	return func() (*Conn, error) {
		assignR, assignW := io.Pipe()
		resultR, resultW := io.Pipe()
		killed := make(chan struct{})
		var once sync.Once
		kill := func() {
			once.Do(func() {
				close(killed)
				assignR.CloseWithError(io.ErrClosedPipe)
				resultW.CloseWithError(io.ErrUnexpectedEOF)
			})
		}
		go func() {
			serve(assignR, resultW, killed)
			resultW.Close()
		}()
		return &Conn{In: assignW, Out: resultR, Kill: kill, Wait: func() error { return nil }}, nil
	}
}

// garbledKey is a plan key no worker can parse (its param is not a
// number).
const garbledKey = "ReadFile/x/1/1"

// badPlanKey garbles the first job key of the first plan line the
// coordinator sends, the line after the header. With hold set, it
// sends that line only once hold is closed, or after a minute.
type badPlanKey struct {
	io.WriteCloser
	lines int
	hold  <-chan struct{}
}

func (w *badPlanKey) Write(line []byte) (int, error) {
	if w.lines++; w.lines != 2 {
		return w.WriteCloser.Write(line)
	}
	if w.hold != nil {
		select {
		case <-w.hold:
		case <-time.After(time.Minute):
		}
	}
	var pl journal.Plan
	if err := json.Unmarshal(line, &pl); err != nil {
		return 0, err
	}
	pl.Jobs[0] = garbledKey
	data, err := json.Marshal(&pl)
	if err != nil {
		return 0, err
	}
	if _, err := w.WriteCloser.Write(append(data, '\n')); err != nil {
		return 0, err
	}
	return len(line), nil
}

// TestWorkerErrorRecordIsFatal: a chunk a real worker cannot run — its
// plan names a key the worker cannot parse — comes back as an error
// record that fails the campaign without respawning, spelled exactly as
// the in-process executor spells it. A run's own failure never makes
// one: the worker's supervisor quarantines it. The first worker gets
// its plan only once the second slot has spawned, so that the error
// cannot end the campaign before every slot has had its one spawn.
func TestWorkerErrorRecordIsFatal(t *testing.T) {
	_, local := core.ExecuteChunk(newRunner(false), []string{garbledKey}, 1, core.SupervisorOptions{}, nil)
	if local == nil {
		t.Fatal("the executor parsed a garbled key")
	}

	inner := InProcess()
	var spawned atomic.Int32
	second := make(chan struct{})
	counted := func() (*Conn, error) {
		n := spawned.Add(1)
		if n == 2 {
			close(second)
		}
		conn, err := inner()
		if err == nil {
			w := &badPlanKey{WriteCloser: conn.In}
			if n == 1 {
				w.hold = second
			}
			conn.In = w
		}
		return conn, err
	}
	_, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(campaignSpecs(8)),
		core.WithShardExecutor(NewFleet(FleetOptions{Workers: 2, Spawn: counted})),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), local.Error()) {
		t.Fatalf("error = %v, want the in-process spelling %q", err, local)
	}
	if n := spawned.Load(); n != 2 {
		t.Fatalf("%d workers spawned, want 2 (error records must not respawn)", n)
	}
}

// TestStallDetectionRespawns: a worker that accepts its chunk and then
// goes silent — no records, no heartbeats — is killed at the stall
// deadline, its slot respawns, and the chunk is re-dispatched. One slot,
// so no sibling can speculate the silent chunk away. The deadline is 50
// heartbeats long, so a loaded host that delays the respawned worker's
// beacon does not kill it too.
func TestStallDetectionRespawns(t *testing.T) {
	specs := campaignSpecs(20)
	base, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	inner := InProcess()
	var spawned atomic.Int32
	silent := fakeSpawner(func(in io.Reader, out io.Writer, killed <-chan struct{}) {
		io.Copy(io.Discard, in)
		<-killed
	})
	spawn := func() (*Conn, error) {
		if spawned.Add(1) == 1 {
			return silent()
		}
		return inner()
	}
	set, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(specs),
		core.WithShardExecutor(NewFleet(FleetOptions{
			Workers:       1,
			Spawn:         spawn,
			StallDeadline: 500 * time.Millisecond,
			Heartbeat:     10 * time.Millisecond,
		})),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, withoutDispatch(set)) {
		t.Fatal("merged set after stalled worker diverges from unsharded run")
	}
	if n := spawned.Load(); n != 2 {
		t.Fatalf("%d workers spawned, want 2 (1 slot + 1 stall respawn)", n)
	}
	if st := set.Dispatch; st.WorkerDeaths != 1 || st.Redispatched < 1 {
		t.Fatalf("dispatch stats %+v, want one stall death and a re-dispatch", st)
	}
}

// TestShardedCancellation: cancelling the context kills even a worker
// no deadline would catch — silent, with stall detection off — and
// surfaces ErrInterrupted with the partial set, the same contract as the
// in-process pool.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := InProcess()
	var spawned atomic.Int32
	silentKilled := make(chan struct{})
	silent := fakeSpawner(func(in io.Reader, out io.Writer, killed <-chan struct{}) {
		go io.Copy(io.Discard, in)
		<-killed
		close(silentKilled)
	})
	spawn := func() (*Conn, error) {
		if spawned.Add(1) == 1 {
			return silent()
		}
		return inner()
	}
	set, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(campaignSpecs(120)),
		core.WithShardExecutor(NewFleet(FleetOptions{
			Workers: 2, Spawn: spawn, StallDeadline: -1, ProgressDeadline: -1,
		})),
		core.WithProgress(func(done, total int) {
			if done == 5 {
				cancel()
			}
		}),
	).Run(ctx)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("error = %v, want ErrInterrupted", err)
	}
	if set == nil || !set.Partial {
		t.Fatal("cancelled fleet campaign must return its partial set")
	}
	<-silentKilled
}

// TestSupervisedFleetMatchesPool: a campaign's attempt policy holds on
// a fleet. The workers take the policy from the session header: they
// quarantine the panicking and the hanging chaos spec and retry the
// flaky one, and the coordinator commits their records as the pool
// commits its own. So the archive (quarantine list and retries
// included), trace and metrics equal the in-process pool's; the
// quarantine budget stops the fleet with QuarantineBudgetError; and a
// progress deadline below the supervised worst case still lets the
// watchdog quarantine a hang without killing the worker.
func TestSupervisedFleetMatchesPool(t *testing.T) {
	chaos := func(fn string) inject.FaultSpec {
		return inject.FaultSpec{Function: fn, Invocation: 1, Type: inject.ZeroBits}
	}
	run := func(policy core.SupervisorOptions, exec core.ShardExecutor, specs []inject.FaultSpec) (*core.SetResult, error) {
		return core.NewCampaign(newRunner(true), core.WithSpecs(specs), core.WithParallelism(2),
			core.WithSupervision(policy), core.WithShardExecutor(exec),
		).Run(context.Background())
	}

	specs := campaignSpecs(12)
	specs = append(specs[:3], append([]inject.FaultSpec{chaos(core.ChaosPanicFunction)}, specs[3:]...)...)
	specs = append(specs[:8], append([]inject.FaultSpec{chaos(core.ChaosFlakyFunction)}, specs[8:]...)...)
	specs = append(specs, chaos(core.ChaosHangFunction))
	policy := core.SupervisorOptions{WallDeadline: 100 * time.Millisecond, MaxAttempts: 2, Chaos: true}
	pool, err := run(policy, nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Quarantined) != 2 || pool.Runs[8].Retries != 1 {
		t.Fatalf("pool quarantined %d runs, flaky run retried %d times; want 2 and 1", len(pool.Quarantined), pool.Runs[8].Retries)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, pool)
	set, err := run(policy, NewFleet(FleetOptions{Workers: 2, ChunkSize: 3}), specs)
	if err != nil {
		t.Fatal(err)
	}
	archive, trace, metrics := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Errorf("supervised fleet archive differs from the pool's:\n%s\nwant:\n%s", archive, wantArchive)
	}
	if !bytes.Equal(trace, wantTrace) || metrics != wantMetrics {
		t.Error("supervised fleet trace or metrics differ from the pool's")
	}

	t.Run("budget", func(t *testing.T) {
		budget := core.SupervisorOptions{MaxAttempts: 1, MaxQuarantined: 1, Chaos: true}
		long := append(append([]inject.FaultSpec(nil), specs[:8]...), campaignSpecs(60)[12:]...)
		set, err := run(budget, NewFleet(FleetOptions{Workers: 2, ChunkSize: 4}), long)
		var over *core.QuarantineBudgetError
		if !errors.As(err, &over) || set == nil || !set.Partial {
			t.Fatalf("error = %v, partial set %v; want QuarantineBudgetError with the partial set", err, set != nil)
		}
		if q := set.Quarantined; len(q) != 1 || q[0].Index != 3 || q[0].Reason != core.ReasonPanic {
			t.Fatalf("quarantined %+v, want the one panic at index 3", q)
		}
		if last := set.Runs[len(set.Runs)-1]; last.Fault.Function != "" {
			t.Fatal("the fleet dispatched the whole list past the budget stop")
		}
	})

	t.Run("progress deadline", func(t *testing.T) {
		f := NewFleet(FleetOptions{Workers: 1, Heartbeat: 10 * time.Millisecond, ProgressDeadline: 100 * time.Millisecond})
		set, err := run(policy, f, []inject.FaultSpec{specs[0], chaos(core.ChaosHangFunction), specs[1]})
		if err != nil {
			t.Fatal(err)
		}
		if q := set.Quarantined; len(q) != 1 || q[0].Reason != core.ReasonHang {
			t.Fatalf("quarantined %+v, want the hang", q)
		}
		if st := set.Dispatch; st.WorkerDeaths != 0 {
			t.Fatalf("a watchdog-bounded hang read as a wedged worker: %+v", st)
		}
	})
}

// failingDef is IIS whose client spawn, on the harness goroutine, fails
// every fault run: it panics, or returns an error. With calibrated its
// first spawn, the coordinator's calibration run, succeeds; a worker's
// runner never calibrates, so all its spawns fail.
func failingDef(panics, calibrated bool) workload.Definition {
	def := workload.NewIIS(workload.Standalone)
	spawn := def.SpawnClient
	var calls atomic.Int32
	def.SpawnClient = func(k *ntsim.Kernel) (*ntsim.Process, *workload.Report, error) {
		if calibrated && calls.Add(1) == 1 {
			return spawn(k)
		}
		if panics {
			panic("harness bug")
		}
		return nil, nil, errors.New("client refused to start")
	}
	return def
}

// TestHarnessFailureOneArchive: a run whose harness fails — its client
// spawn panics, or returns an error — is retried and quarantined in
// every mode, so the campaign completes, and with one archive (a
// quarantine entry per failing spec, 3 attempts each), in-process at
// -parallel 1 and 4, journaled, and on an in-process fleet whose workers
// run their chunks under the policy the session header carries.
func TestHarnessFailureOneArchive(t *testing.T) {
	specs := campaignSpecs(6)
	for _, panics := range []bool{true, false} {
		reason := core.ReasonError
		if panics {
			reason = core.ReasonPanic
		}
		var want []byte
		for _, m := range []struct {
			name             string
			par              int
			journaled, fleet bool
		}{
			{"parallel 1", 1, false, false},
			{"parallel 4", 4, false, false},
			{"journaled parallel 1", 1, true, false},
			{"journaled parallel 4", 4, true, false},
			{"fleet", 2, false, true},
			{"journaled fleet", 2, true, true},
		} {
			runner := core.NewRunner(failingDef(panics, true), core.DefaultRunnerOptions())
			opts := []core.Option{core.WithSpecs(specs), core.WithParallelism(m.par)}
			if m.journaled {
				jw, err := journal.Create(filepath.Join(t.TempDir(), "harness.journal"), HeaderFor(runner))
				if err != nil {
					t.Fatal(err)
				}
				defer jw.Close()
				opts = append(opts, core.WithJournal(jw, nil))
			}
			if m.fleet {
				worker := fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
					serveWorker(in, out, func(journal.Header) (*core.Runner, error) {
						return core.NewRunner(failingDef(panics, false), core.DefaultRunnerOptions()), nil
					})
				})
				opts = append(opts, core.WithShardExecutor(NewFleet(FleetOptions{Workers: 2, WorkerParallelism: 2, Spawn: worker})))
			}
			set, err := core.NewCampaign(runner, opts...).Run(context.Background())
			if err != nil {
				t.Fatalf("%s, %s: the campaign failed: %v", reason, m.name, err)
			}
			if len(set.Quarantined) != len(specs) {
				t.Fatalf("%s, %s: %d runs quarantined, want all %d", reason, m.name, len(set.Quarantined), len(specs))
			}
			for _, q := range set.Quarantined {
				if q.Reason != reason || q.Attempts != core.DefaultMaxAttempts {
					t.Errorf("%s, %s: quarantine %+v, want %s after %d attempts", reason, m.name, q, reason, core.DefaultMaxAttempts)
				}
			}
			archive, _, _ := artifacts(t, set)
			if want == nil {
				want = archive
			} else if !bytes.Equal(archive, want) {
				t.Errorf("%s, %s: archive differs from the parallel 1 one", reason, m.name)
			}
		}
	}
}
