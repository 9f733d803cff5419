// Differential oracle for every shortcut the engine takes: the prefix
// fork, scheduler elision, dormant-run copies, the replay oracle's
// fault-free synthesis and verbatim copy, the run-record and trace
// codecs a fleet and a resume decode, and the fleet's index-ordered
// merge. None of them may change a byte, and WithFreshBoot() at
// parallelism 1 takes none of them, so it is the one reference: from a
// seed the generator draws a small campaign and one execution mode, runs
// the campaign in that mode, and requires the archive, the merged JSONL
// trace and the metrics text to equal the reference's.
package ntdts_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/determinism"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/replay"
	"ntdts/internal/shard"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// shortcutSeeds is the tier-1 seed list: seeds 1 to 55, the shortest
// run from 1 whose draws cover every value of every dimension
// (TestShortcutSeedsCoverEveryDimension), then seeds that caught a
// fault: 191 copied a watchd-v2 record of a service killed by a cluster
// scenario, which v3 restarts, into a v3 replay.
var shortcutSeeds = func() []uint64 {
	var seeds []uint64
	for seed := uint64(1); seed <= 55; seed++ {
		seeds = append(seeds, seed)
	}
	return append(seeds, 191)
}()

// FuzzShortcutsMatchFreshBoot checks one drawn campaign per seed against
// its fresh-boot reference. A failure names the first divergent run and
// prints the seed and the draw; add the seed to shortcutSeeds to keep it.
func FuzzShortcutsMatchFreshBoot(f *testing.F) {
	for _, seed := range shortcutSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		drawCampaign(seed).check(t)
	})
}

// TestShortcutSeedsCoverEveryDimension executes no campaign: it fails
// unless the seed list draws every workload, target substrate, cluster
// size, routing policy, spec kind, telemetry setting and execution mode,
// both replay kinds with and without NoElide, and a replay that each of
// the oracle's two proofs must elide from.
func TestShortcutSeedsCoverEveryDimension(t *testing.T) {
	want := []string{"telemetry off", "telemetry wrapping", "mode run in-process", "mode run on a fleet",
		"mode resume in-process", "mode resume on a fleet", "proof fault-free", "proof copy"}
	for _, w := range workloads {
		want = append(want, "workload "+w)
	}
	for _, s := range middleware.All() {
		want = append(want, "substrate "+s.String())
	}
	for n := 0; n <= 3; n++ {
		want = append(want, fmt.Sprint("nodes ", n))
	}
	for n := 1; n <= 4; n++ {
		want = append(want, fmt.Sprint("fleet of ", n))
	}
	for _, r := range routings {
		want = append(want, "routing "+r)
	}
	for _, k := range []string{"activated", "dormant", "standby", "scenario", core.ChaosPanicFunction, core.ChaosFlakyFunction} {
		want = append(want, "spec "+k)
	}
	for _, r := range []string{"cross-family", "v2<->v3"} {
		want = append(want, "replay "+r, "replay "+r+" no-elide")
	}
	covered := map[string]bool{}
	for _, seed := range shortcutSeeds {
		for _, v := range drawCampaign(seed).values() {
			covered[v] = true
		}
	}
	var missing []string
	for _, v := range want {
		if !covered[v] {
			missing = append(missing, v)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("no seed draws: %s", strings.Join(missing, "; "))
	}
}

var (
	workloads = []string{"Apache1", "Apache2", "IIS", "SQL"}
	routings  = []string{"failover", "round-robin", "least-loaded"}
	// calledByEvery lists catalog functions every workload's target
	// calls on every substrate and topology; activatedPool adds
	// request-path functions most targets call; dormantPool lists
	// catalog functions no target calls.
	calledByEvery = []string{"CreateEventA", "GetModuleHandleA", "GetStartupInfoA", "InitializeCriticalSection", "WaitForSingleObject"}
	activatedPool = append(slices.Clip(calledByEvery), "ReadFile", "WriteFile", "CreateFileA", "CloseHandle",
		"EnterCriticalSection", "HeapAlloc", "VirtualAlloc", "InterlockedIncrement", "SetEvent", "GetFileSize")
	dormantPool = []string{"CreateMailslotA", "TransactNamedPipe", "ResumeThread", "GetTimeZoneInformation",
		"GetExitCodeProcess", "CreateDirectoryA", "CopyFileA", "RaiseException", "CreateFileMappingW", "SetCurrentDirectoryW"}
	scenarioFns = []string{core.ClusterNodeCrashFunction, core.ClusterServiceCrashFunction, core.ClusterPartitionFunction}
	chaosFns    = []string{core.ChaosPanicFunction, core.ChaosFlakyFunction}
)

// neverReached is an invocation no run gets to: a fault there on a
// function the target calls activates but never fires, so its run is
// the fault-free run, which no middleware reacts to.
const neverReached = 1 << 20

type mode int

const (
	modeRun    mode = iota // one campaign, on a pool or a fleet
	modeResume             // journaled, cut at a random byte past its plan, resumed
	modeReplay             // journaled under source, replayed to target
)

// draw is one generated campaign and the mode that runs it.
type draw struct {
	seed     uint64
	workload string
	target   middleware.Spec
	nodes    int
	routing  string // "" on fewer than two nodes
	chaos    bool
	traceCap int // 0: telemetry off
	specs    []inject.FaultSpec

	mode     mode
	parallel int    // pool width, or each fleet worker's
	workers  int    // fleet slots (modeRun, modeResume); 0 runs the pool
	chunk    int    // fleet ChunkSize
	cut      uint64 // modeResume: picks the cut byte
	source   middleware.Spec
	noElide  bool
}

func pick[E any](rng *rand.Rand, xs []E) E { return xs[rng.IntN(len(xs))] }

// drawCampaign is a pure function of seed.
func drawCampaign(seed uint64) draw {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	d := draw{seed: seed, workload: pick(rng, workloads), target: pick(rng, middleware.All()), nodes: rng.IntN(4)}
	if d.nodes >= 2 {
		d.routing = pick(rng, routings)
	}
	d.chaos = rng.IntN(4) == 0
	if rng.IntN(2) == 0 {
		d.traceCap = 8 << rng.IntN(3) // every run records more events than 32
	}
	n := 10 + rng.IntN(31)
	for seen := map[string]bool{}; len(d.specs) < n; {
		if s := d.drawSpec(rng); !seen[s.Key()] {
			seen[s.Key()] = true
			d.specs = append(d.specs, s)
		}
	}
	d.mode, d.parallel = mode(rng.IntN(3)), pick(rng, []int{1, 2, 3, 4, 8})
	switch d.mode {
	case modeRun, modeResume:
		if rng.IntN(2) == 0 {
			d.workers, d.chunk = 1+rng.IntN(4), 1+rng.IntN(n)
		}
		d.cut = rng.Uint64()
	case modeReplay:
		d.source, d.noElide = pick(rng, middleware.All()), rng.IntN(3) == 0
		if v := d.target.Version(); v != 0 && rng.IntN(2) == 0 {
			// A neighbouring watchd generation: v2 and v3 admit copies,
			// v1 and v2 must not.
			d.source = middleware.Spec{Supervision: workload.Watchd, WatchdVersion: [...]watchd.Version{watchd.V2, watchd.V3, watchd.V2}[v-1]}
		}
	}
	return d
}

func (d *draw) drawSpec(rng *rand.Rand) inject.FaultSpec {
	kernel := func(pool []string, node int) inject.FaultSpec {
		fn := pick(rng, pool)
		e, _ := win32.CatalogLookup(fn)
		s := inject.FaultSpec{Function: fn, Param: rng.IntN(e.Params), Invocation: 1 + rng.IntN(3),
			Type: pick(rng, inject.AllFaultTypes()), Node: node}
		if rng.IntN(4) == 0 {
			s.Invocation = neverReached
		}
		return s
	}
	switch k := rng.IntN(10); {
	case k < 2 && d.nodes >= 2: // a standby node's fault
		return kernel(pick(rng, [][]string{activatedPool, dormantPool}), 1+rng.IntN(d.nodes-1))
	case k < 3 && d.nodes >= 1:
		s := inject.FaultSpec{Function: pick(rng, scenarioFns), Invocation: 1 + rng.IntN(5), Type: inject.FlipBits, Node: rng.IntN(d.nodes)}
		if s.Function == core.ClusterPartitionFunction {
			s.Param = rng.IntN(16)
		}
		return s
	case k < 4 && d.chaos:
		return inject.FaultSpec{Function: pick(rng, chaosFns), Invocation: 1, Type: inject.ZeroBits}
	case k < 7:
		return kernel(dormantPool, 0)
	default:
		return kernel(activatedPool, 0)
	}
}

// kind names a spec's kind, as drawSpec drew it.
func kind(s inject.FaultSpec) string {
	switch {
	case slices.Contains(scenarioFns, s.Function):
		return "scenario"
	case slices.Contains(chaosFns, s.Function):
		return s.Function
	case s.Node > 0:
		return "standby"
	case slices.Contains(dormantPool, s.Function):
		return "dormant"
	}
	return "activated"
}

// generation reports whether s is watchd v2 or v3, whose runs the
// oracle may copy between.
func generation(s middleware.Spec) bool {
	return s.Supervision == workload.Watchd && (s.Version() == watchd.V2 || s.Version() == watchd.V3)
}

// copyAdmissible reports whether the oracle may copy records verbatim:
// between watchd v2 and v3 on one host (a replay keeps the topology),
// and then only a catalog fault's.
func (d draw) copyAdmissible() bool {
	return d.mode == modeReplay && d.nodes <= 1 && generation(d.source) && generation(d.target)
}

// expectFaultFree reports whether the oracle must synthesize a run: a
// fault on a function no target calls.
func (d draw) expectFaultFree() bool {
	return d.mode == modeReplay && !d.noElide && slices.ContainsFunc(d.specs, func(s inject.FaultSpec) bool {
		return slices.Contains(dormantPool, s.Function)
	})
}

// expectCopy reports whether the oracle must copy a record: a fault on
// a function every target calls, at an invocation no run reaches, on a
// pair it may copy between.
func (d draw) expectCopy() bool {
	return d.copyAdmissible() && !d.noElide && slices.ContainsFunc(d.specs, func(s inject.FaultSpec) bool {
		return s.Invocation == neverReached && s.Node == 0 && slices.Contains(calledByEvery, s.Function)
	})
}

// values lists the dimension values the draw covers.
func (d draw) values() []string {
	vs := []string{"workload " + d.workload, "substrate " + d.target.String(), fmt.Sprint("nodes ", d.nodes), "telemetry off"}
	if d.routing != "" {
		vs = append(vs, "routing "+d.routing)
	}
	if d.traceCap > 0 {
		vs[3] = "telemetry wrapping"
	}
	for _, s := range d.specs {
		vs = append(vs, "spec "+kind(s))
	}
	where := " in-process"
	if d.workers > 0 {
		where = " on a fleet"
		vs = append(vs, fmt.Sprint("fleet of ", d.workers))
	}
	noElide := ""
	if d.noElide {
		noElide = " no-elide"
	}
	switch {
	case d.mode == modeRun:
		vs = append(vs, "mode run"+where)
	case d.mode == modeResume:
		vs = append(vs, "mode resume"+where)
	case d.source.Supervision != d.target.Supervision:
		vs = append(vs, "replay cross-family"+noElide)
	case generation(d.source) && generation(d.target) && d.source != d.target:
		vs = append(vs, "replay v2<->v3"+noElide)
	}
	if d.expectFaultFree() {
		vs = append(vs, "proof fault-free")
	}
	if d.expectCopy() {
		vs = append(vs, "proof copy")
	}
	return vs
}

func (d draw) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %s/%s", d.seed, d.workload, d.target)
	if d.nodes > 0 {
		fmt.Fprintf(&b, " -cluster %d", d.nodes)
	}
	if d.routing != "" {
		b.WriteString(" " + d.routing)
	}
	if d.chaos {
		b.WriteString(" -chaos")
	}
	if d.traceCap > 0 {
		fmt.Fprintf(&b, " traced (cap %d)", d.traceCap)
	}
	switch d.mode {
	case modeResume:
		b.WriteString(" journaled, cut and resumed")
	case modeReplay:
		fmt.Fprintf(&b, " replayed from %s (no-elide %t)", d.source, d.noElide)
	}
	if d.workers > 0 {
		fmt.Fprintf(&b, " on a fleet of %d (chunk %d)", d.workers, d.chunk)
	}
	fmt.Fprintf(&b, " -parallel %d, %d specs:", d.parallel, len(d.specs))
	for _, s := range d.specs {
		b.WriteString("\n  " + s.String())
	}
	return b.String()
}

// header is the journal header the draw's campaign runs from under sub:
// every campaign here, the reference included, builds its runner and
// attempt policy from it, as fleet workers, dts -resume and -replay do.
func (d draw) header(sub middleware.Spec, traced bool) journal.Header {
	opts := core.DefaultRunnerOptions()
	h := journal.Header{Kind: journal.KindHeader, Version: journal.Version, Workload: d.workload,
		Supervision: sub.Supervision.String(), WatchdVersion: int(sub.Version()),
		ServerUpTimeoutNS: int64(opts.ServerUpTimeout), RunDeadlineNS: int64(opts.RunDeadline),
		ClusterNodes: d.nodes, ClusterRouting: d.routing, FaultList: "generated", Chaos: d.chaos}
	if traced {
		h.Telemetry, h.TraceCapacity = true, d.traceCap
	}
	return h
}

// campaign runs the draw's specs from h with the given options.
func (d draw) campaign(t *testing.T, h journal.Header, opts ...core.Option) *core.SetResult {
	t.Helper()
	r, err := shard.RunnerFromHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]core.Option{core.WithSpecs(d.specs), core.WithSupervision(shard.PolicyFromHeader(h))}, opts...)
	set, err := core.NewCampaign(r, opts...).Run(context.Background())
	if err != nil {
		t.Fatalf("%v\n%v", err, d)
	}
	return set
}

// executor is the draw's pool or a fresh in-process fleet.
func (d draw) executor() core.Option {
	if d.workers == 0 {
		return core.WithParallelism(d.parallel)
	}
	return core.WithShardExecutor(shard.NewFleet(shard.FleetOptions{
		Workers: d.workers, WorkerParallelism: d.parallel, ChunkSize: d.chunk}))
}

// journal runs the campaign from h journaled and returns the journal's
// path.
func (d draw) journal(t *testing.T, h journal.Header, exec core.Option) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jw, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	d.campaign(t, h, exec, core.WithJournal(jw, nil))
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func (d draw) check(t *testing.T) {
	traced := d.traceCap > 0 && d.mode != modeReplay // replay runs untraced
	h := d.header(d.target, traced)
	want := d.campaign(t, h, core.WithFreshBoot(), core.WithParallelism(1))
	if len(want.Runs) != len(d.specs) {
		t.Fatalf("%d runs for %d specs:\n%v", len(want.Runs), len(d.specs), d)
	}
	var got *core.SetResult
	switch d.mode {
	case modeRun:
		got = d.campaign(t, h, d.executor())
	case modeResume:
		got = d.resume(t, h)
	case modeReplay:
		got = d.replay(t)
	}
	if traced && !slices.ContainsFunc(want.Telemetry.Runs[1:], func(r *telemetry.Recorder) bool { return r != nil && r.Dropped() > 0 }) {
		t.Fatalf("no run's trace wrapped its ring:\n%v", d)
	}
	d.compare(t, artifactsOf(t, got), artifactsOf(t, want))
}

// resume journals the campaign, cuts the journal at a random byte past
// its plan line, removes the checkpoint, and resumes it the way dts
// -resume does, on the draw's executor.
func (d draw) resume(t *testing.T, h journal.Header) *core.SetResult {
	path := d.journal(t, h, d.executor())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plan := bytes.IndexByte(data, '\n') + 1
	plan += bytes.IndexByte(data[plan:], '\n') + 1
	cut := plan + int(d.cut%uint64(len(data)-plan+1))
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + ".ckpt"); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	rep, err := journal.Replay(path)
	if err != nil {
		t.Fatalf("%v\n%v", err, d)
	}
	jw, err := journal.Append(path, rep.ValidBytes, rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	set := d.campaign(t, rep.Header, d.executor(), core.WithJournal(jw, rep))
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return set
}

// replay journals the campaign under the source substrate, replays it
// to the target as dts -replay does, and holds the oracle's decisions
// to its invariants: every job counted once, nothing elided under
// NoElide or for a scenario fault, copies only where copyAdmissible
// allows them, and each proof eliding where the draw says it must.
func (d draw) replay(t *testing.T) *core.SetResult {
	path := d.journal(t, d.header(d.source, d.traceCap > 0), core.WithParallelism(d.parallel))
	src, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, oracle, err := replay.Build(src, replay.Options{Target: d.target, Parallelism: d.parallel, NoElide: d.noElide})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := oracle.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resolved {
		if r != nil && kind(d.specs[i]) == "scenario" {
			t.Fatalf("scenario fault %s elided:\n%v", d.specs[i], d)
		}
	}
	set, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("%v\n%v", err, d)
	}
	st := oracle.Stats()
	if st.Total != len(d.specs) || st.Elided+st.Executed != st.Total || d.noElide && st.Elided != 0 ||
		st.Copied > 0 && !d.copyAdmissible() || d.expectFaultFree() && st.FaultFree == 0 || d.expectCopy() && st.Copied == 0 {
		t.Fatalf("replay stats %+v break the oracle's invariants:\n%v", st, d)
	}
	return set
}

// artifacts is what a campaign leaves: its archive, each run's archive
// record and trace snapshot, and the merged trace and metrics text.
type artifacts struct {
	archive, trace, metrics string
	runs                    []string
}

func artifactsOf(t *testing.T, set *core.SetResult) artifacts {
	t.Helper()
	archive, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	a := artifacts{archive: string(archive)}
	for i := range set.Runs {
		rec, err := json.Marshal(set.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r := set.Runs[i].Telemetry; r != nil {
			rec = append(append(rec, '\n'), r.AppendSnapshotJSON(nil)...)
		}
		a.runs = append(a.runs, string(rec))
	}
	if set.Telemetry != nil {
		var buf bytes.Buffer
		if err := set.Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		a.trace, a.metrics = buf.String(), set.Telemetry.MetricsText()
	}
	return a
}

// compare fails on the first divergent run, then on any other
// divergence of the archive, the merged trace or the metrics text.
func (d draw) compare(t *testing.T, got, want artifacts) {
	t.Helper()
	determinism.AssertEqualSlices(t, "run record and trace", got.runs, want.runs, func(i int) string {
		return fmt.Sprintf("run %d (%s) of %v", i, d.specs[i], d)
	})
	repro := func(int, string, string) string { return d.String() }
	determinism.AssertSameTranscript(t, "archive", got.archive, want.archive, repro)
	determinism.AssertSameTranscript(t, "merged trace", got.trace, want.trace, repro)
	determinism.AssertSameTranscript(t, "metrics text", got.metrics, want.metrics, repro)
}
