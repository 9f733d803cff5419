// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each BenchmarkTableN/BenchmarkFigureN runs the corresponding
// campaign and reports the headline numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results end to end. BenchmarkAblationSkipModes
// prices the skip rule (DESIGN.md §3), and the Campaign*, Cluster* and
// WorkloadGen benchmarks back the CI performance gates.
package ntdts_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ntdts/internal/avail"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/shard"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
	"ntdts/internal/workloadgen"
)

// BenchmarkTable1 regenerates Table 1: the number of activated KERNEL32
// functions per workload and configuration.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for wl, want := range experiments.PaperTable1() {
			for sup, wantN := range want {
				got := res.Counts[wl][sup]
				if got != wantN {
					b.Fatalf("Table1 %s/%s = %d, paper %d", wl, sup, got, wantN)
				}
			}
		}
		b.ReportMetric(float64(res.Counts["IIS"]["none"]), "IIS-activated")
		b.ReportMetric(float64(res.Counts["Apache1"]["none"]), "Apache1-activated")
	}
}

// sharedFigure2 returns the process-wide memoized Figure 2 experiment:
// the six benchmarks that derive tables and figures from the same
// campaign share one execution instead of re-running ~10k simulations
// each (campaigns are deterministic, so the data is identical).
func sharedFigure2(b *testing.B) *core.Experiment {
	b.Helper()
	exp, err := experiments.Cached(experiments.Config{}).Figure2()
	if err != nil {
		b.Fatal(err)
	}
	return exp
}

func sharedFigure5(b *testing.B) *experiments.Figure5Result {
	b.Helper()
	res, err := experiments.Cached(experiments.Config{}).Figure5()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure2 regenerates Figure 2: outcome distributions for every
// workload under stand-alone, MSCS and watchd supervision.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp := sharedFigure2(b)
		for _, wl := range []string{"Apache1", "IIS", "SQL"} {
			none, _ := exp.Find(wl, "none")
			wd, _ := exp.Find(wl, "watchd")
			b.ReportMetric(none.FailurePct(), wl+"-none-fail%")
			b.ReportMetric(wd.FailurePct(), wl+"-watchd-fail%")
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: the weighted Apache-vs-IIS
// outcome comparison.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(sharedFigure2(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Supervision == "none" {
				b.ReportMetric(row.ApachePct["failure"], "Apache-fail%")
				b.ReportMetric(row.IISPct["failure"], "IIS-fail%")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2: Apache vs IIS counting only common
// faults.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(sharedFigure2(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Supervision == "none" && r.Program == "Apache1+Apache2" {
				b.ReportMetric(r.FailurePct, "Apache-common-fail%")
				b.ReportMetric(float64(r.Activated), "Apache-common-faults")
			}
			if r.Supervision == "none" && r.Program == "IIS" {
				b.ReportMetric(r.FailurePct, "IIS-common-fail%")
			}
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: response times by outcome with
// 95% confidence intervals.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure4(sharedFigure2(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Supervision == "none" && c.Outcome == "normal success" && c.Stats.N > 0 {
				b.ReportMetric(c.Stats.Mean, c.Program+"-normal-sec")
			}
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: the Watchd1/Watchd2/Watchd3
// evolution.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sharedFigure5(b)
		for _, v := range []watchd.Version{watchd.V1, watchd.V2, watchd.V3} {
			set, ok := res.Find(v, "IIS")
			if !ok {
				b.Fatal("missing IIS set")
			}
			b.ReportMetric(set.FailurePct(), "IIS-"+v.String()+"-fail%")
		}
	}
}

// BenchmarkAvailability regenerates the §5 availability estimates from the
// Figure 2 campaign.
func BenchmarkAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ests, err := experiments.Availability(sharedFigure2(b), avail.DefaultAssumptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ests {
			if e.Workload == "IIS" {
				b.ReportMetric(e.NinesCount, "IIS-"+e.Supervision+"-nines")
			}
		}
	}
}

// BenchmarkCampaignParallel sweeps the campaign engine's worker count
// over a full Apache1 stand-alone campaign, reporting absolute throughput
// (runs/sec) and speedup relative to the one-worker sweep measured in the
// same process. On a multi-core host the 4-worker rate should be at least
// twice the sequential rate; the results themselves are byte-identical at
// every worker count. Each worker count runs both engines: the default
// snapshot-fork engine (runs sharing a boot prefix resume from a kernel
// fork) and the legacy fresh-boot engine (every run boots its own
// kernel), with speedup-vs-fresh-boot comparing the two at equal worker
// counts — the metric the CI bench-smoke gate pins (>= 2x; the ISSUE
// target is >= 3x locally, 10x on a many-core host).
func BenchmarkCampaignParallel(b *testing.B) {
	campaign := func(workers int, freshBoot bool) *core.SetResult {
		opts := []core.Option{core.WithParallelism(workers)}
		if freshBoot {
			opts = append(opts, core.WithFreshBoot())
		}
		set, err := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			opts...).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return set
	}

	// Sequential snapshot-engine baseline for the worker-scaling speedup
	// metric, timed outside the sub-benchmarks so every worker count
	// compares against the same run.
	start := time.Now()
	base := campaign(1, false)
	baseRate := float64(len(base.Runs)) / time.Since(start).Seconds()

	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > counts[len(counts)-1] {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		for _, engine := range []string{"fresh-boot", "snapshot"} {
			freshBoot := engine == "fresh-boot"
			b.Run(fmt.Sprintf("engine=%s/workers=%d", engine, workers), func(b *testing.B) {
				// Per-worker-count fresh-boot rate, measured in-process so
				// speedup-vs-fresh-boot compares equal topologies.
				fbStart := time.Now()
				fb := campaign(workers, true)
				fbRate := float64(len(fb.Runs)) / time.Since(fbStart).Seconds()
				totalRuns := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					set := campaign(workers, freshBoot)
					totalRuns += len(set.Runs)
				}
				rate := float64(totalRuns) / b.Elapsed().Seconds()
				b.ReportMetric(rate, "runs/sec")
				b.ReportMetric(rate/baseRate, "speedup")
				b.ReportMetric(rate/fbRate, "speedup-vs-fresh-boot")
			})
		}
	}
}

// BenchmarkCampaignTraced pins the telemetry tax: the same Apache1
// stand-alone campaign with per-run recorders collecting the full event
// trace, counters and histograms, compared against an untraced baseline
// measured in the same process. The overhead-ratio metric (traced time /
// untraced time) is what the CI bench-smoke job gates on; on a steady
// machine with -benchtime long enough to average, the ratio stays under
// 1.10 (CI gates at 1.35 because -benchtime=1x single runs are noisy).
func BenchmarkCampaignTraced(b *testing.B) {
	campaign := func(topts telemetry.Options) *core.SetResult {
		c := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone),
				core.RunnerOptions{Telemetry: topts}),
			core.WithParallelism(1))
		set, err := c.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return set
	}

	// Warm-up, then the untraced baseline, timed in this process so the
	// ratio compares like against like.
	campaign(telemetry.Options{})
	start := time.Now()
	base := campaign(telemetry.Options{})
	baseSec := time.Since(start).Seconds()
	if base.Telemetry != nil {
		b.Fatal("baseline campaign collected telemetry")
	}

	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := campaign(telemetry.Options{Enabled: true})
		if set.Telemetry == nil {
			b.Fatal("traced campaign collected no telemetry")
		}
		if len(set.Runs) != len(base.Runs) {
			b.Fatalf("traced campaign ran %d faults, baseline %d", len(set.Runs), len(base.Runs))
		}
		events = set.Telemetry.Events()
	}
	tracedSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(tracedSec/baseSec, "overhead-ratio")
	b.ReportMetric(float64(events), "trace-events")
}

// BenchmarkCampaignJournaled pins the journaling tax: the same Apache1
// stand-alone campaign with a crash-safe results journal (one fsync'd
// JSONL record per run plus periodic checkpoints), compared against an
// unjournaled baseline measured in the same process; both run under the
// default supervisor policy, as every campaign does. The overhead-ratio
// metric (journaled time / bare time) is what the kill-resume CI job
// gates on; the target is < 1.10.
func BenchmarkCampaignJournaled(b *testing.B) {
	bare := func() *core.SetResult {
		c := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			core.WithParallelism(1))
		set, err := c.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return set
	}
	jpath := filepath.Join(b.TempDir(), "bench.journal")
	journaled := func() *core.SetResult {
		jw, err := journal.Create(jpath, journal.Header{Workload: "Apache1", Supervision: "none"})
		if err != nil {
			b.Fatal(err)
		}
		c := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			core.WithParallelism(1), core.WithJournal(jw, nil))
		set, err := c.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := jw.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			b.Fatal(err)
		}
		return set
	}

	// The pairs are interleaved — bare, journaled, bare, journaled — so
	// slow drift in machine load (which dwarfs the small ratio being
	// measured over single ~70ms campaigns) cancels instead of biasing
	// one side.
	bare()
	var bareNS, journaledNS int64
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		base := bare()
		t1 := time.Now()
		set := journaled()
		bareNS += int64(t1.Sub(t0))
		journaledNS += int64(time.Since(t1))
		if len(set.Runs) != len(base.Runs) {
			b.Fatalf("journaled campaign ran %d faults, baseline %d", len(set.Runs), len(base.Runs))
		}
		if len(set.Quarantined) != 0 {
			b.Fatalf("%d runs quarantined in a healthy campaign", len(set.Quarantined))
		}
		records = len(set.Runs)
	}
	b.ReportMetric(float64(journaledNS)/float64(bareNS), "overhead-ratio")
	b.ReportMetric(float64(records), "journal-records")
}

// BenchmarkAblationSkipModes compares the calibration-informed skip (ours)
// with the paper's one-probe-per-unactivated-function procedure: identical
// outcome data, and more runs in the paper-faithful archive. The probes
// cost less than their count suggests: every probe's function is one the
// target never calls, so the runner simulates the first and copies the
// rest (core.Dormant).
func BenchmarkAblationSkipModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			core.WithFaultTypes(inject.ZeroBits))
		fs, err := fast.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		faithful := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			core.WithFaultTypes(inject.ZeroBits),
			core.WithPaperFaithfulSkips())
		ps, err := faithful.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(fs.Runs)), "runs-calibrated")
		b.ReportMetric(float64(len(ps.Runs)), "runs-paper-faithful")
	}
}

// BenchmarkClusterCampaign prices the multi-node engine: the same
// mixed fault campaign (kernel faults plus the three cluster scenario
// kinds) on a 3-node IIS/MSCS cluster, against a single-host campaign
// over the kernel faults measured in the same process. Cluster runs
// take the same snapshot fork and scheduler elision as a single host
// but simulate N+1 kernels on one shared clock, with network delivery
// and the MSCS peer probes, so each run costs a multiple of a
// single-host run; cost-vs-single-node is that multiple, and the CI
// bench-smoke gate bounds it at 3x.
func BenchmarkClusterCampaign(b *testing.B) {
	kernelSpecs := []inject.FaultSpec{
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.ZeroBits},
		{Function: "TransactNamedPipe", Param: 2, Invocation: 1, Type: inject.OneBits},
	}
	clusterSpecs := append([]inject.FaultSpec{
		{Function: core.ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits},
		{Function: core.ClusterServiceCrashFunction, Invocation: 5, Type: inject.FlipBits, Node: 1},
		{Function: core.ClusterPartitionFunction, Param: 15, Invocation: 5, Type: inject.FlipBits},
	}, kernelSpecs...)
	campaign := func(cfg core.ClusterConfig, specs []inject.FaultSpec) *core.SetResult {
		opts := core.DefaultRunnerOptions()
		opts.Cluster = cfg
		set, err := core.NewCampaign(
			core.NewRunner(workload.NewIIS(workload.MSCS), opts),
			core.WithSpecs(specs), core.WithParallelism(1)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return set
	}

	// Single-host baseline: same workload, same kernel faults, default
	// engine (snapshot fork + elision).
	start := time.Now()
	baseRuns := 0
	for time.Since(start) < 200*time.Millisecond {
		baseRuns += len(campaign(core.ClusterConfig{}, kernelSpecs).Runs)
	}
	basePerRun := time.Since(start).Seconds() / float64(baseRuns)

	totalRuns := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalRuns += len(campaign(core.ClusterConfig{Nodes: 3}, clusterSpecs).Runs)
	}
	perRun := b.Elapsed().Seconds() / float64(totalRuns)
	b.ReportMetric(1/perRun, "runs/sec")
	b.ReportMetric(perRun/basePerRun, "cost-vs-single-node")
}

// BenchmarkWorkloadGen measures statistical workload generation: sampling
// a 10,000-request mixed cohort schedule and rendering its replay trace.
// Generation must stay a negligible slice of campaign cost — the CI smoke
// gate bounds gen-ms — and the trace byte count tracks the serialization
// overhead a recorded campaign carries.
func BenchmarkWorkloadGen(b *testing.B) {
	spec, err := workloadgen.Parse("seed=42" +
		";class=browser,clients=12,requests=500,arrival=poisson,rate=2,mix=static-115k:3/cgi-1k:1" +
		";class=batch,clients=4,requests=800,arrival=gamma,rate=1,shape=0.5,mix=cgi-1k:1,mode=closed" +
		";class=probe,clients=2,requests=400,arrival=weibull,rate=4,shape=0.8,mix=static-115k:1")
	if err != nil {
		b.Fatal(err)
	}
	if got := spec.TotalRequests(); got != 10_000 {
		b.Fatalf("cohort sizes %d requests, want 10000", got)
	}
	var traceBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheds, err := spec.Schedule()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := workloadgen.WriteTrace(&buf, spec.String(), scheds); err != nil {
			b.Fatal(err)
		}
		traceBytes = buf.Len()
	}
	sec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(sec*1000, "gen-ms")
	b.ReportMetric(float64(spec.TotalRequests())/sec, "requests/sec")
	b.ReportMetric(float64(traceBytes), "trace-bytes")
}

// BenchmarkCampaignFleet sweeps the work-stealing fleet over a full
// Apache1 stand-alone campaign: each worker count runs the campaign
// through the dispatcher (in-process workers speaking the full wire
// protocol, one run-pool slot each) and reports wall-clock relative to a
// 1-worker fleet measured in the same process. On a multi-core host 4
// workers should finish in well under 0.6x the 1-worker time — the CI
// shard job gates on exactly that metric; on a single-core host the
// ratio only shows the dispatch overhead. The straggler case has worker 0
// sleep 5ms before every run: the fleet speculates its tail. The merged
// results stay byte-identical at every shape (the shard tests pin that).
func BenchmarkCampaignFleet(b *testing.B) {
	campaign := func(workers int, slow string) *core.SetResult {
		set, err := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			core.WithShardExecutor(shard.NewFleet(shard.FleetOptions{
				Workers: workers, WorkerParallelism: 1, ChaosSlow: slow}))).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if set.Dispatch.Degraded {
			b.Fatal("fleet completed degraded in a clean benchmark")
		}
		return set
	}

	// Warm-up, then the 1-worker baseline every fleet shape compares
	// against, timed in this process.
	campaign(1, "")
	start := time.Now()
	base := campaign(1, "")
	baseSec := time.Since(start).Seconds()

	bench := func(name string, workers int, slow string) {
		b.Run(name, func(b *testing.B) {
			totalRuns := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := campaign(workers, slow)
				if len(set.Runs) != len(base.Runs) {
					b.Fatalf("%s ran %d faults, baseline %d", name, len(set.Runs), len(base.Runs))
				}
				totalRuns += len(set.Runs)
			}
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(totalRuns)/b.Elapsed().Seconds(), "runs/sec")
			b.ReportMetric(sec/baseSec, "time-vs-1worker")
		})
	}
	for _, w := range []int{1, 2, 4, 8} {
		bench(fmt.Sprintf("workers=%d", w), w, "")
	}
	bench("straggler/workers=4", 4, "0:5")
}
