// Command dts is the Dependability Test Suite driver: it runs fault-
// injection campaigns against the simulated NT workloads and writes the
// results archive that dtsreport renders.
//
// Usage:
//
//	dts -config dts.cfg [-out results.json]
//	dts -config dts.cfg -fault "ReadFile 1 1 flip" [-trace]
//	dts -config dts.cfg -cohort "seed=42;class=..." [-workload-trace-out sched.wtrace]
//	dts -config dts.cfg -workload-trace sched.wtrace
//	dts -config dts.cfg -cluster 3 [-routing round-robin|least-loaded|failover]
//	dts -config dts.cfg -middleware watchd-v2
//	dts -resume campaign.journal [-workers N] [-out results.json]
//	dts -replay campaign.journal -middleware watchd-v3 [-out results.json] [-no-elide]
//	dts -experiment table1|figure2|figure5 [-out results.json]
//	dts -conformance [-golden path] [-update] [-sample n] [-seed n]
//	dts ... [-trace-out trace.jsonl] [-metrics] [-trace-cap n]
//	dts -config dts.cfg -workers 4
//	dts -config dts.cfg -workers h1:9433,h2:9433 [-worker-key k]
//	dts -experiment figure2 -workers 4
//	dts -worker-listen :9433 [-worker-key k]
//	dts serve [-addr host:port] [-worker-key k]
//
// Each mode honours a fixed set of flags (the modes table below) and
// rejects any other flag by name, so no flag is silently ignored; -q,
// -cpuprofile and -memprofile work everywhere. Every campaign entry
// point — -config, -fault, serve, -resume, a fleet worker and -replay —
// builds its runner from one journal header (shard.RunnerFromHeader):
// for -config, -fault and serve, campaignHeader makes that header from
// the config text plus the flags or the submit body.
//
// With -config, dts runs a single workload set as configured (workload,
// middleware, fault list). With -fault, dts runs exactly one fault —
// with -trace it prints the run's telemetry events, one per line, before
// the summary — which is the §4.3 debugging workflow: replay a
// failure-producing fault and watch what the system did. With
// -experiment, dts runs one of the paper's evaluation campaigns wholesale.
// With -conformance, dts sweeps the whole KERNEL32 catalog through the
// fault set and prints (or checks against a golden file) the per-call
// failure-mode matrix — the API-level companion to the workload campaigns.
//
// -trace-out and -metrics work with every campaign mode but -replay
// (which re-executes with telemetry off): they switch the telemetry layer
// on, collect one recorder per run (so parallel workers never contend),
// and export the merged virtual-time trace (JSONL) and metrics summary —
// byte-identical at any -parallel setting. dtsreport -trace summarizes an
// exported trace. -trace switches the layer on for -fault's one run, and
// -trace-cap bounds that run's event ring as it bounds every run's: the
// telemetry recorder is the only trace a run leaves.
//
// -cohort replaces the canned client with a generated multi-client cohort
// (seeded arrival processes, per-class request mixes — see DESIGN.md §4h);
// the campaign summary then includes a per-class reliability table.
// -workload-trace-out records the generated schedule; -workload-trace
// replays a recorded schedule as the campaign input. Both the spec and the
// trace path ride the journal header, so fleet workers and -resume rebuild
// the identical schedule, and archives are byte-identical at any
// -parallel/-workers setting and across record/replay.
//
// -workers runs a -config, -experiment or -resume campaign as a
// work-stealing fleet of worker processes (DESIGN.md §4j; dts re-executes
// itself with the internal -shard-worker flag; a resumed campaign runs
// only what its journal lacks): workers pull bounded chunks on demand,
// lost chunks are re-dispatched, straggler tails are speculated, and the
// merged archive, trace and metrics are byte-identical to an
// unsharded run under any kill schedule. Every campaign runs under the
// supervisor's policy (-run-deadline, -retries, -max-quarantined,
// -chaos, or their defaults), on a fleet too: each worker runs its
// chunks under the policy the session header carries and streams its
// quarantines back. -parallel then sizes each worker's run pool. An
// integer count spawns local worker processes; a host:port list dials
// `dts -worker-listen` hosts over authenticated TCP (-worker-key), one
// connection per worker, so a dropped connection is a worker death. A
// campaign that
// finishes only by in-process fallback (every worker budget exhausted)
// exits 5. `dts serve` exposes the same engine
// as a long-running HTTP service: submit campaigns with config and
// fault list inline, stream progress as JSONL, fetch the archive and
// report.
//
// -middleware overrides the configured substrate ("none", "watchd",
// "watchd-v1".."v3", "mscs") without editing the config file. With
// -replay it instead names the target substrate: dts re-executes a
// journaled campaign under that substrate, and a divergence oracle
// elides every run whose recorded evidence proves the swap cannot
// change the outcome (DESIGN.md §4k). The output archive is
// byte-identical to a from-scratch campaign under the target;
// -no-elide sends every run to the target's runner (the equivalence
// baseline), and -cluster/-routing override the recorded topology. The
// final "replay:" line is machine-parseable (key=value) for CI gates.
//
// -cluster N runs the workload on an N-node shared-clock cluster behind a
// latency-modeled virtual network; -routing picks how clients choose a
// node (failover, round-robin, least-loaded — see DESIGN.md §4i). Fault
// lists gain an optional node=<i> address and three cluster scenario
// pseudo-faults (DTSClusterNodeCrash, DTSClusterServiceCrash,
// DTSClusterPartition); the summary and dtsreport grow a per-node cluster
// view. The topology rides the journal header, so fleet workers rebuild
// it and archives stay byte-identical at any -parallel/-workers setting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"ntdts/internal/apiharness"
	"ntdts/internal/avail"
	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/ntsim/cluster"
	"ntdts/internal/report"
	"ntdts/internal/shard"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
	"ntdts/internal/workloadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dts:", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "serve" {
		// Long-running campaign service: submit over HTTP, stream
		// progress, fetch archive and report. See serve.go.
		return runServe(args[1:], out)
	}
	fs := flag.NewFlagSet("dts", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "main configuration file")
	experiment := fs.String("experiment", "", "paper experiment to run: table1, figure2, figure5")
	outPath := fs.String("out", "", "results archive path (overrides config)")
	faultSpec := fs.String("fault", "", `single fault to replay: "Function param invocation type"`)
	trace := fs.Bool("trace", false, "print the run's telemetry trace (with -fault)")
	quiet := fs.Bool("q", false, "suppress progress output")
	parallel := fs.Int("parallel", 0, "concurrent fault-injection runs per campaign (0 = all CPUs, 1 = sequential; results are identical either way)")
	fs.Bool("conformance", false, "run the catalog-wide API conformance sweep")
	golden := fs.String("golden", "", "golden failure-mode matrix to check the sweep against (with -conformance)")
	update := fs.Bool("update", false, "rewrite the -golden file from live behaviour instead of checking it")
	sample := fs.Int("sample", 0, "run only a seeded sample of n live cells (with -conformance; 0 = full sweep)")
	seed := fs.Int64("seed", 1, "sampling seed (with -conformance -sample; never changes any cell's outcome)")
	traceOut := fs.String("trace-out", "", "write the merged telemetry trace (JSONL, one event per line) to this file")
	metrics := fs.Bool("metrics", false, "print the merged telemetry counters and virtual-time histograms")
	traceCap := fs.Int("trace-cap", 0, "per-run telemetry event-ring capacity (0 = default)")
	journalPath := fs.String("journal", "", "append every completed run to this crash-safe JSONL journal (enables -resume)")
	resume := fs.String("resume", "", "resume an interrupted campaign from its journal (byte-identical to an uninterrupted run)")
	runDeadline := fs.Duration("run-deadline", 0, "wall-clock watchdog per run attempt (0 = off); a hung attempt is abandoned and retried")
	maxQuarantined := fs.Int("max-quarantined", 0, "stop the campaign once this many runs are quarantined (0 = unlimited)")
	retries := fs.Int("retries", 2, "retries of a run whose attempt panics, errors or outlives -run-deadline, before the run is quarantined (backoff doubles from 5ms up to 100ms)")
	chaos := fs.Bool("chaos", false, "recognize the reserved DTSChaos* fault functions and the DTS_SHARD_CHAOS_KILL drill (self-tests)")
	workers := fs.String("workers", "", `work-stealing campaign fleet: a worker count ("4" spawns local dts workers) or a comma-separated host:port list (dials dts -worker-listen hosts); results byte-identical to unsharded under any kill schedule; -parallel then sizes each worker's pool`)
	workerListen := fs.String("worker-listen", "", "host fleet workers for remote -workers coordinators on this TCP address (long-running; authenticate with -worker-key)")
	workerKey := fs.String("worker-key", "", "shared session key for the TCP transport: with -worker-listen, or with a host:port -workers list (default $DTS_WORKER_KEY)")
	fs.Bool("shard-worker", false, "internal: serve one shard assignment on stdin/stdout")
	freshBoot := fs.Bool("fresh-boot", false, "boot a fresh kernel for every run and hand off every scheduling quantum, instead of forking the boot-prefix snapshot, copying dormant runs and eliding solo handoffs (slower; archives are byte-identical either way)")
	replayPath := fs.String("replay", "", "re-execute a journaled campaign under the -middleware substrate, eliding runs the recorded evidence proves unaffected (archive byte-identical to a from-scratch run)")
	middlewareSpec := fs.String("middleware", "", `middleware substrate: "none", "watchd", "watchd-v1".."v3" or "mscs" (the -replay target, or a -config override)`)
	noElide := fs.Bool("no-elide", false, "disable the -replay divergence oracle so every run goes to the target's runner (the equivalence baseline)")
	clusterN := fs.Int("cluster", 0, "run every fault on an N-node simulated cluster (0 = single host; 1 = single host with DTSCluster* scenario faults enabled; topology rides the journal header so -parallel/-workers/-resume rebuild it)")
	routing := fs.String("routing", "", `client routing policy across -cluster nodes: "failover" (default), "round-robin" or "least-loaded"`)
	cohort := fs.String("cohort", "", `generated multi-client workload: a seeded cohort spec, e.g. "seed=42;class=browser,clients=4,requests=6,arrival=poisson,rate=2,mix=static-115k:3/cgi-1k:1" (same seed, same schedule at any -parallel/-workers)`)
	workloadTrace := fs.String("workload-trace", "", "replay a recorded schedule trace (JSONL) as the client workload instead of the canned client")
	workloadTraceOut := fs.String("workload-trace-out", "", "record the -cohort schedule to this trace file (replayable with -workload-trace)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole command to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (taken after the command finishes) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (every flag after it would be ignored)", fs.Arg(0))
	}
	mode, err := flagMode(fs)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dts: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dts: -memprofile:", err)
			}
		}()
	}
	if mode == "shard-worker" {
		// Worker mode speaks the journal wire protocol and nothing else;
		// the coordinator is the only intended invoker.
		return shard.ServeWorker(os.Stdin, out)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d)", *parallel)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be >= 0 (got %d)", *retries)
	}
	if *clusterN < 0 {
		return fmt.Errorf("-cluster must be >= 0 (got %d)", *clusterN)
	}
	if *routing != "" && *clusterN == 0 {
		return fmt.Errorf("-routing selects a policy for a -cluster topology; add -cluster N")
	}
	if _, err := cluster.ParsePolicy(*routing); err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel this context; the campaign engine converts
	// the cancellation into a graceful stop (the campaign drains,
	// flushes the journal, and prints the resume command — the fleet
	// coordinator cancels its workers through the same path).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	progress := func(line string) {
		if !*quiet {
			fmt.Fprintln(out, line)
		}
	}
	tflags := telemetryFlags{traceOut: *traceOut, metrics: *metrics, traceCap: *traceCap}
	// The flags that shape a campaign beyond its config text, in the
	// header that will describe it; campaignHeader adds the config.
	fromFlags := journal.Header{
		Telemetry: tflags.options().Enabled, TraceCapacity: *traceCap, FreshBoot: *freshBoot,
		ClusterNodes: *clusterN, ClusterRouting: *routing,
		Cohort: *cohort, WorkloadTrace: *workloadTrace,
		WallDeadlineNS: int64(*runDeadline), MaxAttempts: *retries + 1,
		MaxQuarantined: *maxQuarantined, Chaos: *chaos,
	}
	// A fleet runs the campaign's chunks in worker processes, under the
	// campaign's policy; -journal records committed runs plus the
	// dispatch provenance trail.
	var fleet *shard.FleetOptions
	if *workers != "" {
		fopts, err := fleetFlags{workers: *workers, key: *workerKey, chaos: *chaos}.options(*parallel)
		if err != nil {
			return err
		}
		fleet = &fopts
	}
	// The key authenticates TCP workers only: a campaign without a
	// host:port -workers list would never read it.
	if *workerKey != "" && mode != "worker-listen" && (fleet == nil || len(fleet.Spawners) == 0) {
		return fmt.Errorf("-%s takes -worker-key only with a host:port -workers list", mode)
	}

	switch mode {
	case "worker-listen":
		return runWorkerListen(ctx, *workerListen, *workerKey, progress)
	case "replay":
		cc := core.ClusterConfig{Nodes: *clusterN, Routing: *routing}
		return runReplay(ctx, *replayPath, *middlewareSpec, *outPath, *parallel, *noElide, cc, progress, out)
	case "resume":
		return runResume(ctx, *resume, *outPath, *parallel, fleet, *workers, tflags, progress, out)
	case "conformance":
		return runConformance(*golden, *update, *sample, *seed, *parallel, tflags, progress, out)
	case "experiment":
		ecfg := experiments.Config{Progress: progress, Parallelism: *parallel, Supervise: shard.PolicyFromHeader(fromFlags)}
		ecfg.Opts.Telemetry = tflags.options()
		ecfg.Opts.FreshBoot = *freshBoot
		if fleet != nil {
			ecfg.ShardExec = shard.NewFleet(*fleet)
		}
		return runExperiment(*experiment, *outPath, ecfg, tflags, out)
	}

	// -fault and -config: the config file plus the flags give the
	// campaign's header, and the header gives the runner.
	if *cfgPath == "" {
		return fmt.Errorf("-fault replays one fault of a -config workload; add -config")
	}
	f, err := os.Open(*cfgPath)
	if err != nil {
		return err
	}
	h, results, err := campaignHeader(f, *middlewareSpec, fromFlags)
	f.Close()
	if err != nil {
		return err
	}
	if *workloadTraceOut != "" {
		if err := recordSchedule(h.Cohort, *workloadTraceOut); err != nil {
			return err
		}
	}
	runner, err := shard.RunnerFromHeader(h)
	if err != nil {
		return err
	}
	if mode == "fault" {
		return runSingleFault(runner, *faultSpec, *trace, tflags, out)
	}
	if *outPath == "" {
		*outPath = results
	}
	return runCampaign(ctx, runner, h, nil, *journalPath, *outPath, *parallel, fleet, *workers, tflags, progress, out)
}

// modes is the flag table: every way dts runs, in the order a set flag
// selects it, with the flags it honours. -q, -cpuprofile and -memprofile
// are global. Any other set flag is rejected by name, so no flag is
// silently ignored.
var modes = []struct{ flag, takes string }{
	{"shard-worker", ""},
	{"worker-listen", "worker-key"},
	{"replay", "middleware cluster routing out parallel no-elide"},
	{"resume", "out parallel trace-out metrics workers worker-key"},
	{"conformance", "golden update sample seed parallel trace-out metrics trace-cap"},
	{"experiment", "out parallel fresh-boot trace-out metrics trace-cap run-deadline max-quarantined retries chaos workers worker-key"},
	{"fault", "config trace fresh-boot middleware cluster routing cohort workload-trace workload-trace-out trace-out metrics trace-cap"},
	{"config", "out parallel fresh-boot middleware cluster routing cohort workload-trace workload-trace-out trace-out metrics trace-cap journal run-deadline max-quarantined retries chaos workers worker-key"},
}

// flagMode returns the mode the set flags select, rejecting every set
// flag that mode does not honour. A flag set to its default changes
// nothing, so it counts as unset. Table 1 runs calibration scans only,
// so it rejects the fleet and supervisor flags.
func flagMode(fs *flag.FlagSet) (string, error) {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if f.Value.String() != f.DefValue {
			set = append(set, f.Name)
		}
	})
	for _, m := range modes {
		if !slices.Contains(set, m.flag) {
			continue
		}
		takes := strings.Fields(m.flag + " " + m.takes + " q cpuprofile memprofile")
		table1 := m.flag == "experiment" && fs.Lookup("experiment").Value.String() == "table1"
		var bad, scansOnly []string
		for _, name := range set {
			switch {
			case !slices.Contains(takes, name):
				bad = append(bad, "-"+name)
			case table1 && slices.Contains(strings.Fields("workers run-deadline max-quarantined retries chaos"), name):
				scansOnly = append(scansOnly, "-"+name)
			}
		}
		if len(bad) > 0 {
			return "", fmt.Errorf("-%s does not take %s", m.flag, strings.Join(bad, ", "))
		}
		if len(scansOnly) > 0 {
			return "", fmt.Errorf("-experiment table1 runs calibration scans only: it does not take %s", strings.Join(scansOnly, ", "))
		}
		return m.flag, nil
	}
	return "", fmt.Errorf("one of -config, -experiment, -conformance, -resume, -replay or -worker-listen is required")
}

// workerSpawner builds the self-exec spawner for fleet workers. Under
// `go test` the binary is the test harness, so workers re-enter through
// TestHelperProcess — the same re-exec pattern the chaos tests use.
func workerSpawner() shard.Spawner {
	if os.Getenv("DTS_HELPER_PROCESS") == "1" {
		return shard.SelfExec("-test.run=TestHelperProcess", "--", "-shard-worker")
	}
	return shard.SelfExec("-shard-worker")
}

// telemetryFlags carries the -trace-out/-metrics/-trace-cap triple. Either
// output flag switches collection on; the merged exports are byte-identical
// at any -parallel setting.
type telemetryFlags struct {
	traceOut string
	metrics  bool
	traceCap int
}

// options translates the flags into per-run collection options.
func (t telemetryFlags) options() telemetry.Options {
	return telemetry.Options{Enabled: t.traceOut != "" || t.metrics, TraceCap: t.traceCap}
}

// emit writes the requested telemetry artifacts for a finished command.
func (t telemetryFlags) emit(set *telemetry.Set, out io.Writer) error {
	if set == nil {
		return nil
	}
	if t.traceOut != "" {
		f, err := os.Create(t.traceOut)
		if err != nil {
			return err
		}
		if err := set.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if t.metrics {
		fmt.Fprint(out, "\n", set.MetricsText())
	}
	return nil
}

// campaignHeader turns config text plus command-line or serve-body
// overrides into the journal header that describes the campaign, and
// returns the config's results path too. The config supplies the
// workload, substrate, timeouts and fault list; mw, when set, overrides
// the substrate as the config's "middleware" key would (an unpinned
// "watchd" keeps the configured generation); o supplies every other
// field. Every runner is built from such a header, by
// shard.RunnerFromHeader, and a journal records the same header.
func campaignHeader(cfgText io.Reader, mw string, o journal.Header) (journal.Header, string, error) {
	cfg, err := config.ParseMain(cfgText)
	if err != nil {
		return o, "", err
	}
	if mw != "" {
		spec, err := middleware.Parse(mw)
		if err != nil {
			return o, "", err
		}
		cfg.Middleware = spec.Supervision
		if spec.WatchdVersion != 0 {
			cfg.WatchdVersion = spec.WatchdVersion
		}
	}
	h := o
	h.Workload, h.Supervision = cfg.Workload, cfg.Middleware.String()
	if cfg.Middleware == workload.Watchd {
		h.WatchdVersion = int(cfg.WatchdVersion)
	}
	h.ServerUpTimeoutNS, h.RunDeadlineNS = int64(cfg.ServerUpTimeout), int64(cfg.RunDeadline)
	h.FaultList = cfg.FaultList
	if o.Cohort != "" {
		if o.WorkloadTrace != "" {
			return o, "", fmt.Errorf("-cohort and -workload-trace are mutually exclusive (a trace already fixes the schedule)")
		}
		spec, err := workloadgen.Parse(o.Cohort)
		if err != nil {
			return o, "", err
		}
		h.Cohort = spec.String()
	}
	return h, cfg.Results, nil
}

// recordSchedule writes the schedule of a -cohort spec to a trace file
// that -workload-trace replays.
func recordSchedule(cohort, path string) error {
	if cohort == "" {
		return fmt.Errorf("-workload-trace-out records a generated schedule; it requires -cohort")
	}
	spec, err := workloadgen.Parse(cohort)
	if err != nil {
		return err
	}
	sched, err := spec.Schedule()
	if err != nil {
		return err
	}
	return workloadgen.WriteTraceFile(path, spec.String(), sched)
}

// runSingleFault replays one fault with full result detail — the paper's
// "individual fault injection runs provide reproducible feedback" workflow.
// With trace the run records telemetry, and its events print first.
func runSingleFault(runner *core.Runner, faultSpec string, trace bool, tflags telemetryFlags, out io.Writer) error {
	specs, err := config.ParseFaultList(strings.NewReader(faultSpec))
	if err != nil || len(specs) != 1 {
		return fmt.Errorf("bad -fault %q (want \"Function param invocation type\")", faultSpec)
	}
	if trace {
		runner.Opts.Telemetry.Enabled = true
	}
	res, err := runner.Run(&specs[0])
	if err != nil {
		return err
	}
	if trace {
		printTrace(res.Telemetry, out)
	}
	if res.Telemetry != nil {
		if err := tflags.emit(telemetry.NewSet(res.Telemetry), out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\nfault:     %s\n", res.Fault.String())
	fmt.Fprintf(out, "workload:  %s/%s\n", runner.Def.Name, runner.Def.Supervision)
	fmt.Fprintf(out, "activated: %v, injected: %v\n", res.Activated, res.Injected)
	fmt.Fprintf(out, "outcome:   %s\n", res.Outcome)
	fmt.Fprintf(out, "crash:     %v, restarts: %d\n", res.ServerCrash, res.Restarts)
	for _, ns := range res.Nodes {
		fmt.Fprintf(out, "node %d:    restarts %d, failovers %d, events %d, crashed %v\n",
			ns.Node, ns.Restarts, ns.Failovers, ns.Events, ns.Crashed)
	}
	if res.Completed {
		fmt.Fprintf(out, "response:  %.2fs (reply received: %v)\n", res.ResponseSec, res.GotResponse)
	} else {
		fmt.Fprintf(out, "response:  none (client never finished)\n")
	}
	return nil
}

// printTrace prints a run's retained events one per line: virtual time,
// PID, kind, name, A and B. A note first counts the events the ring
// dropped, which are the earliest.
func printTrace(rec *telemetry.Recorder, out io.Writer) {
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(out, "(%d earlier events dropped; raise -trace-cap to keep them)\n", n)
	}
	for _, e := range rec.Events() {
		fmt.Fprintf(out, "%-14s pid%-3d %s %s %d %d\n", e.At, e.PID, e.Kind, e.Name, e.A, e.B)
	}
}

// runConformance sweeps the catalog through the fault set. Without -golden
// the matrix goes to stdout (redirect it to seed a golden file); with
// -golden it is checked — or, with -update, rewritten — so CI can fail on
// any drift between pinned and live failure modes.
func runConformance(golden string, update bool, sample int, seed int64, parallel int, tflags telemetryFlags, progress func(string), out io.Writer) error {
	res, err := apiharness.Sweep(apiharness.Options{
		Seed:        seed,
		Sample:      sample,
		Parallelism: parallel,
		Telemetry:   tflags.options(),
		Progress: func(done, total int) {
			if done%200 == 0 || done == total {
				progress(fmt.Sprintf("%d/%d cells swept", done, total))
			}
		},
	})
	if err != nil {
		return err
	}
	if err := tflags.emit(res.Telemetry, out); err != nil {
		return err
	}
	counts := res.ClassCounts()
	progress(fmt.Sprintf("%d injectable catalog entries (%d live), %d cells: %d error, %d crash, %d hang, %d silent",
		res.InjectableEntries, res.LiveFunctions, len(res.Cells),
		counts["error"], counts["crash"], counts["hang"], counts["silent"]))
	switch {
	case golden == "":
		fmt.Fprint(out, res.Matrix())
	case update:
		if err := res.WriteGolden(golden); err != nil {
			return err
		}
		progress("wrote " + golden)
	default:
		if err := res.CompareGolden(golden); err != nil {
			return err
		}
		progress(golden + " matches live behaviour")
	}
	return nil
}

func runExperiment(name, outPath string, ecfg experiments.Config, tflags telemetryFlags, out io.Writer) error {
	archive := &experiments.Archive{}
	var tset *telemetry.Set
	switch name {
	case "table1":
		res, err := experiments.RunTable1(ecfg)
		if err != nil {
			return err
		}
		archive.Kind, archive.Table1 = "table1", res
		tset = res.Telemetry
		fmt.Fprint(out, report.Table1(res))
	case "figure2":
		exp, err := experiments.RunFigure2(ecfg)
		if err != nil {
			return err
		}
		archive.Kind, archive.Experiment = "figure2", exp
		tset = experiments.MergedTelemetry(exp.Sets)
		fmt.Fprint(out, report.Figure2(exp))
	case "figure5":
		res, err := experiments.RunFigure5(ecfg)
		if err != nil {
			return err
		}
		archive.Kind, archive.Figure5 = "figure5", res
		tset = res.Telemetry
		fmt.Fprint(out, report.Figure5(res))
	default:
		return fmt.Errorf("unknown experiment %q (want table1, figure2 or figure5)", name)
	}
	if err := tflags.emit(tset, out); err != nil {
		return err
	}
	return saveArchive(archive, outPath)
}

// runCampaign executes a -config campaign from its header or, with a
// non-nil rep, resumes the journaled campaign rep was replayed from
// (runResume): in-process or on a -workers fleet, under the policy the
// header records. A -journal records the same header, so -resume
// rebuilds the campaign from the journal alone.
func runCampaign(ctx context.Context, runner *core.Runner, h journal.Header, rep *journal.Replayed, jpath, outPath string, parallel int, fleet *shard.FleetOptions, workers string, tflags telemetryFlags, progress func(string), out io.Writer) error {
	copts := []core.Option{core.WithParallelism(parallel), core.WithProgress(campaignProgress(progress)),
		core.WithSupervision(shard.PolicyFromHeader(h))}
	if h.FaultList != "" {
		specs, err := faultSpecs(h.FaultList, rep)
		if err != nil {
			return err
		}
		copts = append(copts, core.WithSpecs(specs))
	}
	var jw *journal.Writer
	var err error
	switch {
	case rep != nil:
		jw, err = journal.Append(jpath, rep.ValidBytes, rep.Records)
	case jpath != "":
		jw, err = journal.Create(jpath, h)
	}
	if err != nil {
		return err
	}
	if fleet != nil {
		copts = append(copts, core.WithShardExecutor(shard.NewFleet(*fleet)))
	}
	set, err := core.NewCampaign(runner, append(copts, core.WithJournal(jw, rep))...).Run(ctx)
	return finish(set, err, jw, outPath, resumeCommand(jpath, outPath, parallel, workers, tflags), tflags, out)
}

// campaignProgress adapts the line-oriented progress sink to the
// campaign's (done, total) callback.
func campaignProgress(progress func(string)) func(done, total int) {
	return func(done, total int) {
		if done%100 == 0 || done == total {
			progress(fmt.Sprintf("%d/%d faults injected", done, total))
		}
	}
}

// printSetSummary renders a finished (or partial) set: the distribution
// and top-failure view, the quarantine report when a run was
// quarantined, and the fleet line when a fleet ran it. The CLI, -replay
// and dts serve's /report all render a set through it.
func printSetSummary(set *core.SetResult, out io.Writer) {
	d := set.Distribution()
	fmt.Fprintf(out, "\n%s/%s: %d activated functions, %d injected faults\n",
		set.Workload, set.Supervision, set.ActivatedFns, d.Total)
	for _, o := range core.AllOutcomes() {
		fmt.Fprintf(out, "  %-22s %5d (%.1f%%)\n", o, d.Counts[o.String()], d.Pct[o.String()])
	}
	fmt.Fprint(out, "\n", report.TopFailures(set, 20))
	if perClass := report.PerClass(set, avail.EstimateClasses(set, avail.DefaultAssumptions())); perClass != "" {
		fmt.Fprint(out, "\n", perClass)
	}
	if clusterView := report.Cluster(set); clusterView != "" {
		fmt.Fprint(out, "\n", clusterView)
	}
	if len(set.Quarantined) != 0 {
		fmt.Fprint(out, "\n", report.Quarantine(set.Quarantined))
	}
	printFleetSummary(set.Dispatch, out)
}

// saveSet archives one workload set.
func saveSet(set *core.SetResult, path string) error {
	return saveArchive(&experiments.Archive{Kind: "set", Set: set}, path)
}

// faultSpecs returns a fault-list campaign's specs: the file's, or on a
// resume the journal's plan, which records them.
func faultSpecs(path string, rep *journal.Replayed) ([]inject.FaultSpec, error) {
	if rep == nil {
		return loadFaultList(path)
	}
	if rep.Plan == nil {
		return nil, errors.New("the journal has no plan record; nothing to resume — rerun the campaign")
	}
	specs := make([]inject.FaultSpec, len(rep.Plan.Jobs))
	for i, key := range rep.Plan.Jobs {
		job, err := core.ParseJobKey(key)
		if err != nil {
			return nil, fmt.Errorf("journal plan job %d: %w", i, err)
		}
		specs[i] = job.Spec
	}
	return specs, nil
}

// loadFaultList parses an explicit fault-list file — campaigns with a
// fault_list run those specs verbatim instead of the generated catalog
// sweep.
func loadFaultList(path string) ([]inject.FaultSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.ParseFaultList(f)
}

func saveArchive(a *experiments.Archive, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return a.Save(f)
}
