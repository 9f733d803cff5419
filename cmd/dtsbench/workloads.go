package main

// The benchmark's workloads. Each is a seeded input, written once per
// run and untimed, plus an iteration: the cold campaign work one dts
// invocation does, timed from campaign construction to the archive file
// being written. Every iteration runs in a fresh child process, so no
// process-wide memo (fault plans, boot-prefix snapshots, kernel pools)
// carries over from one iteration to the next.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
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

// Files an iteration reads and writes inside its input directory.
const (
	faultsFile  = "faults.lst"
	journalFile = "fleet.journal"
	fixtureFile = "fixture.journal"
	archiveFile = "archive.json"
	profileFile = "cpu.pprof"
)

// input is one workload run's configuration.
type input struct {
	dir      string
	seed     int64
	parallel int  // run-pool width and fleet size
	limit    int  // > 0 truncates the input (campaigns for paper-figure2, specs otherwise)
	trace    bool // wrap the fleet's seams
}

func (in *input) path(name string) string { return filepath.Join(in.dir, name) }

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	// why records the layers the workload stresses and which others it
	// deliberately bypasses.
	why string
	// iterS is one iteration's nominal wall time on the 2-vCPU reference
	// host. A run of -seconds does seconds/iterS iterations whatever the
	// speed of the tree under test, so two trees are compared on the same
	// number of samples.
	iterS float64
	// inputs writes the seeded input files (nil: the seed is used
	// directly by the iteration).
	inputs func(in *input) error
	// fixture names the workload whose iteration journal this one
	// replays; set-up runs it once per seed, untimed.
	fixture string
	// campaigns lists the plain in-process campaigns whose archive an
	// iteration must reproduce, and the archive kind ("figure2" or
	// "set"). The fresh-boot reference runs exactly these.
	campaigns func(in *input) ([]campaignDef, string, error)
	// iterate runs one timed iteration.
	iterate func(ctx context.Context, w *benchWorkload, in *input) (*iterResult, error)
}

// campaignDef is one in-process campaign: a workload definition, its
// runner options, and its fault list (nil = the catalog sweep).
type campaignDef struct {
	def   workload.Definition
	opts  core.RunnerOptions
	specs []inject.FaultSpec
}

var workloads = []*benchWorkload{
	{
		name:      "paper-figure2",
		why:       "The paper's own traffic: 12 catalog campaigns, 3468 runs, all in the single-host runner; it never touches the wire, the journal, telemetry or replay",
		iterS:     0.9,
		campaigns: figure2Campaigns,
		iterate:   iterateLocal,
	},
	{
		name:      "fleet-traced-journal",
		why:       "5193-spec IIS/watchd-v2 list on a 2-worker in-process fleet with telemetry and a journal: every run is encoded, crosses the wire, is merged and is fsynced",
		iterS:     3.8,
		inputs:    writeCatalogList,
		campaigns: catalogCampaigns(watchd.V2),
		iterate:   iterateFleet,
	},
	{
		name:      "replay-v2v3",
		why:       "Replays the fleet journal onto watchd v3: the journal read path and the replay oracle, with almost no simulation",
		iterS:     2.1,
		inputs:    writeCatalogList,
		fixture:   "fleet-traced-journal",
		campaigns: catalogCampaigns(watchd.V3),
		iterate:   iterateReplay,
	},
	{
		name:      "cluster-3node",
		why:       "IIS/MSCS on a 3-node shared-clock cluster: network, routing and failover on the unpooled path, bypassing the fork, pooling and elision of paper-figure2",
		iterS:     1.65,
		inputs:    writeClusterList,
		campaigns: clusterCampaigns,
		iterate:   iterateLocal,
	},
}

func workloadNamed(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- inputs ------------------------------------------------------------------

// shuffle permutes n items with the seed's stream.
func shuffle(seed int64, n int, swap func(i, j int)) {
	rand.New(rand.NewSource(seed)).Shuffle(n, swap)
}

// writeSpecs permutes specs by the seed, truncates them to the input's
// limit, and writes them as the workload's fault list.
func writeSpecs(in *input, specs []inject.FaultSpec) error {
	shuffle(in.seed, len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	if in.limit > 0 && in.limit < len(specs) {
		specs = specs[:in.limit]
	}
	f, err := os.Create(in.path(faultsFile))
	if err != nil {
		return err
	}
	if err := config.WriteFaultList(f, specs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCatalogList writes the full faultgen catalog list: every
// parameter of every injectable export with the paper's three
// corruption types.
func writeCatalogList(in *input) error {
	var entries []config.CatalogEntry
	for _, e := range win32.Catalog() {
		if e.Params > 0 {
			entries = append(entries, config.CatalogEntry{Name: e.Name, Params: e.Params})
		}
	}
	return writeSpecs(in, config.GenerateFaultList(entries))
}

// Cluster scenario timing: each scenario fault fires at one of these
// virtual-time delays after the client starts (the IIS canned client
// runs ~19s), and a partition heals 15s after it is cut.
var (
	clusterTriggerSec = []int{2, 5, 10, 15}
	clusterHealSec    = 15
)

// writeClusterList writes the IIS/MSCS catalog plan addressed to each of
// the three nodes, plus every cluster scenario fault at every trigger
// delay.
func writeClusterList(in *input) error {
	p, err := core.NewCampaign(core.NewRunner(workload.NewIIS(workload.MSCS), core.RunnerOptions{})).Prepare()
	if err != nil {
		return fmt.Errorf("cluster plan: %w", err)
	}
	var specs []inject.FaultSpec
	for node := 0; node < 3; node++ {
		for _, j := range p.Jobs {
			s := j.Spec
			s.Node = node
			specs = append(specs, s)
		}
	}
	for _, delay := range clusterTriggerSec {
		specs = append(specs,
			inject.FaultSpec{Function: core.ClusterNodeCrashFunction, Invocation: delay, Type: inject.FlipBits},
			inject.FaultSpec{Function: core.ClusterServiceCrashFunction, Invocation: delay, Type: inject.FlipBits},
			inject.FaultSpec{Function: core.ClusterPartitionFunction, Param: clusterHealSec, Invocation: delay, Type: inject.FlipBits})
	}
	return writeSpecs(in, specs)
}

func readFaultList(in *input) ([]inject.FaultSpec, error) {
	f, err := os.Open(in.path(faultsFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.ParseFaultList(f)
}

// --- campaign definitions ------------------------------------------------------

// figure2Campaigns is dts -experiment figure2: every workload under
// every supervision mode, watchd at version 3, in the canonical
// supervision-major order.
func figure2Campaigns(in *input) ([]campaignDef, string, error) {
	var defs []campaignDef
	for _, s := range experiments.Supervisions() {
		for _, def := range workload.StandardSet(s) {
			defs = append(defs, campaignDef{def: def, opts: core.RunnerOptions{WatchdVersion: watchd.V3}})
		}
	}
	if in.limit > 0 && in.limit < len(defs) {
		defs = defs[:in.limit]
	}
	return defs, "figure2", nil
}

// catalogCampaigns is the IIS fault-list campaign under one watchd
// generation: the from-scratch equivalent of both the fleet iteration
// (v2) and the replay onto v3.
func catalogCampaigns(v watchd.Version) func(in *input) ([]campaignDef, string, error) {
	return func(in *input) ([]campaignDef, string, error) {
		specs, err := readFaultList(in)
		if err != nil {
			return nil, "", err
		}
		return []campaignDef{{
			def:   workload.NewIIS(workload.Watchd),
			opts:  core.RunnerOptions{WatchdVersion: v},
			specs: specs,
		}}, "set", nil
	}
}

func clusterCampaigns(in *input) ([]campaignDef, string, error) {
	specs, err := readFaultList(in)
	if err != nil {
		return nil, "", err
	}
	return []campaignDef{{
		def:   workload.NewIIS(workload.MSCS),
		opts:  core.RunnerOptions{Cluster: core.ClusterConfig{Nodes: 3, Routing: "failover"}},
		specs: specs,
	}}, "set", nil
}

// --- iterations ------------------------------------------------------------------

// iterResult is what one child iteration reports to the parent.
type iterResult struct {
	Jobs   int                `json:"jobs"`   // plan jobs resolved
	Failed int                `json:"failed"` // runs quarantined or hung
	WallS  float64            `json:"wall_s"`
	SetupS float64            `json:"setup_s"`
	Digest string             `json:"digest"` // archive SHA-256
	Layers map[string]float64 `json:"layers"`
}

// iteration times one iteration: wall time from the first campaign's
// construction to the archive file being written, and the summed
// construction-to-first-progress set-up time of its campaigns.
type iteration struct {
	in     *input
	start  time.Time
	setup  time.Duration
	mem    runtime.MemStats
	layers map[string]float64
}

func begin(in *input) *iteration {
	it := &iteration{in: in, layers: make(map[string]float64)}
	runtime.ReadMemStats(&it.mem)
	it.start = time.Now()
	return it
}

// campaign runs one campaign, handing run the progress callback that
// marks the end of the campaign's set-up. A campaign that never reports
// progress counts as set-up until it returns.
func (it *iteration) campaign(run func(progress func(done, total int)) (*core.SetResult, error)) (*core.SetResult, error) {
	t0 := time.Now()
	var first time.Time
	set, err := run(func(int, int) {
		if first.IsZero() {
			first = time.Now()
		}
	})
	if first.IsZero() {
		first = time.Now()
	}
	it.setup += first.Sub(t0)
	return set, err
}

// finish writes the archive (the last timed step), then derives the
// result: digest, job and failure counts, and the layer metrics the
// archive and the Go runtime give.
func (it *iteration) finish(a *experiments.Archive) (*iterResult, error) {
	path := it.in.path(archiveFile)
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := a.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	end := time.Now()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	res := &iterResult{
		WallS:  end.Sub(it.start).Seconds(),
		SetupS: it.setup.Seconds(),
		Digest: hex.EncodeToString(sum[:]),
		Layers: it.layers,
	}
	sets := []*core.SetResult{a.Set}
	if a.Experiment != nil {
		sets = a.Experiment.Sets
	}
	var carrying, activated, restarts, failovers int
	for _, s := range sets {
		res.Jobs += len(s.Runs)
		for _, r := range s.Runs {
			if r.Quarantined || r.Outcome == core.HarnessHang {
				res.Failed++
			}
			if !r.Skipped {
				carrying++
				if r.Activated {
					activated++
				}
			}
			restarts += r.Restarts
			for _, n := range r.Nodes {
				failovers += n.Failovers
			}
		}
	}
	l := it.layers
	l["core.prepare_ms"] = ms(it.setup)
	l["experiments.archive_ms"] = ms(end.Sub(t0))
	l["experiments.archive_bytes"] = float64(len(data))
	l["core.activation_ratio"] = ratio(activated, carrying)
	l["middleware.restarts"] = float64(restarts)
	l["cluster.failovers"] = float64(failovers)
	jobs := float64(max(res.Jobs, 1))
	l["go.allocs_per_run"] = float64(mem.Mallocs-it.mem.Mallocs) / jobs
	l["go.alloc_bytes_per_run"] = float64(mem.TotalAlloc-it.mem.TotalAlloc) / jobs
	l["go.gc_cycles"] = float64(mem.NumGC - it.mem.NumGC)
	l["go.gc_pause_ms"] = float64(mem.PauseTotalNs-it.mem.PauseTotalNs) / 1e6
	return res, nil
}

// archiveOf wraps finished sets in the archive envelope dts writes.
func archiveOf(kind string, sets []*core.SetResult) *experiments.Archive {
	if kind == "figure2" {
		return &experiments.Archive{Kind: kind, Experiment: &core.Experiment{Sets: sets}}
	}
	return &experiments.Archive{Kind: kind, Set: sets[0]}
}

// iterateLocal runs the workload's campaigns in-process, one after
// another in seed-permuted order; the archive keeps canonical order.
func iterateLocal(ctx context.Context, w *benchWorkload, in *input) (*iterResult, error) {
	defs, kind, err := w.campaigns(in)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(defs))
	for i := range order {
		order[i] = i
	}
	shuffle(in.seed, len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return runCampaigns(ctx, in, defs, order, kind, false)
}

// reference runs the workload's campaigns in canonical order on the
// fresh-boot engine: the equivalence oracle every iteration's archive
// must match.
func reference(ctx context.Context, w *benchWorkload, in *input) (*iterResult, error) {
	defs, kind, err := w.campaigns(in)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(defs))
	for i := range order {
		order[i] = i
	}
	return runCampaigns(ctx, in, defs, order, kind, true)
}

func runCampaigns(ctx context.Context, in *input, defs []campaignDef, order []int, kind string, freshBoot bool) (*iterResult, error) {
	it := begin(in)
	sets := make([]*core.SetResult, len(defs))
	for _, i := range order {
		cd := defs[i]
		set, err := it.campaign(func(progress func(int, int)) (*core.SetResult, error) {
			opts := cd.opts
			opts.FreshBoot = freshBoot
			return core.NewCampaign(core.NewRunner(cd.def, opts),
				core.WithSpecs(cd.specs), core.WithParallelism(in.parallel), core.WithProgress(progress)).Run(ctx)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cd.def.Name, cd.def.Supervision, err)
		}
		sets[i] = set
	}
	return it.finish(archiveOf(kind, sets))
}

// iterateFleet is dts -workers 2 -journal J with telemetry on, with the
// fleet's workers in-process: the campaign's runs are dispatched in
// chunks, streamed back over the journal wire format, merged in index
// order and journaled.
func iterateFleet(ctx context.Context, w *benchWorkload, in *input) (*iterResult, error) {
	specs, err := readFaultList(in)
	if err != nil {
		return nil, err
	}
	it := begin(in)
	set, err := it.campaign(func(progress func(int, int)) (*core.SetResult, error) {
		opts := core.RunnerOptions{WatchdVersion: watchd.V2, Telemetry: telemetry.Options{Enabled: true}}
		runner := core.NewRunner(workload.NewIIS(workload.Watchd), opts)
		h := shard.HeaderFor(runner)
		h.FaultList = faultsFile
		jw, err := journal.Create(in.path(journalFile), h)
		if err != nil {
			return nil, err
		}
		defer jw.Close()
		fopts := shard.FleetOptions{Workers: in.parallel, WorkerParallelism: 1, Journal: jw}
		var exec core.ShardExecutor
		var probe *wireProbe
		var timed *timedFleet
		if in.trace {
			probe = newWireProbe()
			fopts.Spawn, fopts.Transport = probe.spawner(shard.InProcess()), "inprocess"
			timed = &timedFleet{Fleet: shard.NewFleet(fopts)}
			exec = timed
		} else {
			exec = shard.NewFleet(fopts)
		}
		set, err := core.NewCampaign(runner, core.WithSpecs(specs), core.WithProgress(progress),
			core.WithShards(max(in.parallel, 2)), core.WithShardExecutor(exec)).Run(ctx)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := jw.Sync(); err != nil {
			return nil, err
		}
		it.layers["journal.sync_ms"] = ms(time.Since(t0))
		it.layers["journal.records"] = float64(jw.Records())
		if err := jw.Close(); err != nil {
			return nil, err
		}
		if st := set.Dispatch; st != nil {
			it.layers["shard.chunks"] = float64(st.Chunks)
			it.layers["shard.speculated"] = float64(st.Speculated)
			it.layers["shard.redispatched"] = float64(st.Redispatched)
			it.layers["shard.worker_deaths"] = float64(st.WorkerDeaths)
		}
		if in.trace {
			it.layers["shard.execute_ms"] = ms(timed.elapsed)
			probe.report(it.layers, len(specs))
		}
		return set, nil
	})
	if err != nil {
		return nil, err
	}
	res, err := it.finish(archiveOf("set", []*core.SetResult{set}))
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(in.path(journalFile)); err == nil {
		res.Layers["journal.bytes"] = float64(fi.Size())
	}
	return res, nil
}

// iterateReplay is dts -replay J -middleware watchd-v3: load the fleet
// journal, build the oracle, re-execute only what it cannot elide.
func iterateReplay(ctx context.Context, w *benchWorkload, in *input) (*iterResult, error) {
	it := begin(in)
	set, err := it.campaign(func(progress func(int, int)) (*core.SetResult, error) {
		t0 := time.Now()
		src, err := replay.Load(in.path(fixtureFile))
		if err != nil {
			return nil, err
		}
		it.layers["replay.load_s"] = time.Since(t0).Seconds()
		t0 = time.Now()
		c, oracle, err := replay.Build(src, replay.Options{
			Target:      middleware.Spec{Supervision: workload.Watchd, WatchdVersion: watchd.V3},
			Parallelism: in.parallel,
			Progress:    progress,
		})
		if err != nil {
			return nil, err
		}
		it.layers["replay.build_ms"] = ms(time.Since(t0))
		set, err := c.Run(ctx)
		if err != nil {
			return nil, err
		}
		st := oracle.Stats()
		it.layers["replay.elided"] = float64(st.Elided)
		it.layers["replay.fault_free"] = float64(st.FaultFree)
		it.layers["replay.copied"] = float64(st.Copied)
		it.layers["replay.executed"] = float64(st.Executed)
		it.layers["replay.elision_rate"] = st.Rate()
		return set, nil
	})
	if err != nil {
		return nil, err
	}
	return it.finish(archiveOf("set", []*core.SetResult{set}))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
