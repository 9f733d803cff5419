package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ntdts/internal/eventlog"
	"ntdts/internal/inject"
	"ntdts/internal/middleware/mscs"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/ntsim"
	"ntdts/internal/scm"
	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
	"ntdts/internal/workload"
)

// RunResult is the data collector's record for one fault-injection run.
type RunResult struct {
	Fault        inject.FaultSpec `json:"fault"`
	Activated    bool             `json:"activated"` // target called the function
	Injected     bool             `json:"injected"`  // the corruption actually fired
	Skipped      bool             `json:"skipped"`   // skipped by the activation rule
	Outcome      Outcome          `json:"outcome"`
	Restarts     int              `json:"restarts"`     // middleware-initiated restarts
	GotResponse  bool             `json:"gotResponse"`  // failure split for Figure 4
	Completed    bool             `json:"completed"`    // client program finished
	ResponseSec  float64          `json:"responseSec"`  // client program lifetime
	ServerCrash  bool             `json:"serverCrash"`  // a target process died abnormally
	ActivatedFns int              `json:"activatedFns"` // distinct functions the target called

	// Classes is the per-traffic-class breakdown when the workload ran a
	// generated cohort (nil for canned single-client workloads, which
	// keeps those archives byte-identical to earlier versions).
	Classes []ClassOutcome `json:"classes,omitempty"`

	// Nodes is the per-node breakdown when the run executed on a
	// multi-node cluster (nil on single-host runs, which keeps those
	// archives byte-identical to earlier versions).
	Nodes []NodeStat `json:"nodes,omitempty"`

	// Retries counts abandoned supervisor attempts that preceded this
	// recorded one; Quarantined marks a placeholder record for a run the
	// supervisor gave up on after its retry budget. Both are zero/false on
	// an unsupervised campaign.
	Retries     int  `json:"retries,omitempty"`
	Quarantined bool `json:"quarantined,omitempty"`

	// Telemetry is the run's collector when RunnerOptions.Telemetry is
	// enabled (nil otherwise). It is per-run — parallel campaign workers
	// never share one — and is merged in run-index order by the campaign,
	// so exports stay byte-identical at any worker count. Excluded from
	// the JSON archive; export traces with dts -trace-out instead.
	Telemetry *telemetry.Recorder `json:"-"`

	// Replayed marks a result produced by a replay campaign; Elided
	// additionally marks one the divergence oracle adopted from the
	// source campaign instead of re-executing. Provenance only —
	// excluded from the JSON archive so replayed archives stay
	// byte-identical to from-scratch campaigns.
	Replayed bool `json:"-"`
	Elided   bool `json:"-"`
}

// RunnerOptions tune the per-run lifecycle.
type RunnerOptions struct {
	// ServerUpTimeout is how long DTS waits for the service to report
	// RUNNING before starting the client anyway.
	ServerUpTimeout time.Duration
	// RunDeadline bounds the whole run in virtual time.
	RunDeadline time.Duration
	// WatchdVersion selects the watchd iteration for Watchd workloads.
	WatchdVersion watchd.Version
	// MSCSParams tunes the resource monitor for MSCS workloads.
	MSCSParams mscs.Params
	// Trace, when non-nil, receives one line per kernel event (process
	// spawn/exit, access violations) — the single-fault debugging view
	// behind the paper's §4.3 feedback workflow.
	Trace func(at vclock.Time, pid ntsim.PID, msg string)
	// Telemetry enables the structured per-run telemetry layer: every
	// run builds its own collector (so parallel workers never contend)
	// capturing the kernel trace ring, counters and virtual-time
	// histograms, attached to RunResult.Telemetry.
	Telemetry telemetry.Options
	// FreshBoot disables every run-engine fast path: no prefix-snapshot
	// forks, no scheduler quantum elision, no dormant-run copies — the
	// engine exactly as it was before those optimizations. It is the
	// regression baseline: archives must be byte-identical with it on or
	// off (the CI bench gate cmp's them) and the benchmarks report the
	// snapshot path's speedup against it.
	FreshBoot bool
	// Cluster runs every run on a simulated multi-node cluster (see
	// ClusterConfig). The zero value keeps the classic single-host
	// engine.
	Cluster ClusterConfig
}

// ClusterConfig configures the simulated cluster topology runs execute
// on. Nodes == 0 is the classic single-host engine. Nodes == 1 enables
// the cluster scenario faults (DTSCluster*) but still executes on the
// single-kernel path — a 1-node cluster is the same machine, which is
// what makes the cluster layer a provable superset. Nodes >= 2 boots N
// node kernels under one shared clock with a virtual network and routed
// clients.
type ClusterConfig struct {
	// Nodes is the cluster size.
	Nodes int
	// Routing names the client routing policy: "round-robin",
	// "least-loaded" or "failover" ("" = failover).
	Routing string
}

// Enabled reports whether cluster semantics (node-addressed faults,
// scenario faults) are active.
func (c ClusterConfig) Enabled() bool { return c.Nodes > 0 }

// NodeStat is one node's slice of a cluster run's evidence.
type NodeStat struct {
	Node      int  `json:"node"`
	Restarts  int  `json:"restarts"`            // middleware restarts on this node
	Failovers int  `json:"failovers,omitempty"` // group-failover records in this node's eventlog
	Events    int  `json:"events"`              // total eventlog records
	Crashed   bool `json:"crashed,omitempty"`   // node was taken down by the scenario
}

// DefaultRunnerOptions returns the experiment defaults.
func DefaultRunnerOptions() RunnerOptions {
	return RunnerOptions{
		ServerUpTimeout: 10 * time.Second,
		RunDeadline:     150 * time.Second,
		WatchdVersion:   watchd.V3,
		MSCSParams:      mscs.DefaultParams(),
	}
}

// Runner executes fault-injection runs for one workload definition.
type Runner struct {
	Def  workload.Definition
	Opts RunnerOptions

	// prefix caches the workload's boot-prefix snapshot, shared by every
	// Clone so a whole campaign pays the boot cost once. It is built
	// lazily at the first run (Def may be adjusted between NewRunner and
	// the first run, but must not change afterwards).
	prefix *prefixCache
	// dormant holds the run that dormant faults are copied from (see
	// Dormant), shared by every Clone under the same contract on Def,
	// which dormantCache extends to Opts.
	dormant *dormantCache
}

// prefixCache lazily builds and memoizes a boot-prefix snapshot (or the
// reason one cannot be taken).
type prefixCache struct {
	once sync.Once
	snap *ntsim.PrefixSnapshot
	err  error
}

// NewRunner builds a Runner with defaults filled in.
func NewRunner(def workload.Definition, opts RunnerOptions) *Runner {
	defaults := DefaultRunnerOptions()
	if opts.ServerUpTimeout == 0 {
		opts.ServerUpTimeout = defaults.ServerUpTimeout
	}
	if opts.RunDeadline == 0 {
		opts.RunDeadline = defaults.RunDeadline
	}
	// A generated cohort's offered load can exceed the single-client
	// deadline; the definition carries the floor it needs (a pure
	// function of the schedule, so every topology computes the same
	// value and the journal header records it for shard workers).
	if def.MinRunDeadline > opts.RunDeadline {
		opts.RunDeadline = def.MinRunDeadline
	}
	if opts.WatchdVersion == 0 {
		opts.WatchdVersion = defaults.WatchdVersion
	}
	if opts.MSCSParams.MaxAttempts == 0 {
		opts.MSCSParams = defaults.MSCSParams
	}
	return &Runner{Def: def, Opts: opts, prefix: &prefixCache{}, dormant: &dormantCache{}}
}

// Clone returns an independent Runner for a campaign worker. A Runner
// holds no per-run state — every run builds its own kernel — so a shallow
// copy suffices (the boot-prefix snapshot and dormant-run caches are
// deliberately shared); Clone exists to make per-worker ownership
// explicit. The Trace sink, if any, is shared, so parallel campaigns
// should not trace.
func (r *Runner) Clone() *Runner {
	c := *r
	return &c
}

// prefixSnapshot builds (once) and returns the shared boot-prefix
// snapshot: a donor kernel runs the workload's Setup and is captured at
// the quiescent pre-spawn instant. Safe for concurrent callers.
func (r *Runner) prefixSnapshot() (*ntsim.PrefixSnapshot, error) {
	c := r.prefix
	if c == nil {
		// Zero-literal Runner (no NewRunner): no cache to share, so
		// snapshot fresh per call — still correct, just unmemoized.
		donor := ntsim.NewKernel()
		r.Def.Setup(donor)
		return donor.SnapshotPrefix()
	}
	c.once.Do(func() {
		donor := ntsim.NewKernel()
		r.Def.Setup(donor)
		c.snap, c.err = donor.SnapshotPrefix()
	})
	return c.snap, c.err
}

// Run executes one fault-injection run. A nil spec is the fault-free
// calibration run. A dormant spec (see Dormant) returns a relabelled
// copy of the runner's first executed dormant run instead of simulating;
// until that run exists, dormant specs simply execute.
func (r *Runner) Run(spec *inject.FaultSpec) (*RunResult, error) {
	ok := r.usesTemplate(spec)
	if ok {
		if t := r.dormant.get(); t != nil && Dormant(*spec, r.Opts.Cluster.Nodes, t.activated) {
			return copyDormant(t.res, *spec), nil
		}
	}
	res, activated, err := r.run(spec)
	if ok && err == nil && Dormant(*spec, r.Opts.Cluster.Nodes, activated) {
		r.dormant.offer(res, activated)
	}
	return res, err
}

// ActivationScan runs the fault-free calibration pass and returns the set
// of functions the target activates (the paper's Table 1 measurement and
// the input to the skip rule).
func (r *Runner) ActivationScan() (map[string]bool, *RunResult, error) {
	res, activated, err := r.run(nil)
	return activated, res, err
}

// run is the per-run lifecycle of the paper's Figure 1: prepare the
// workload programs, start the server (injecting the fault), wait for the
// server to be up, start the client, wait for workload termination, and
// gather results.
func (r *Runner) run(spec *inject.FaultSpec) (*RunResult, map[string]bool, error) {
	if r.Opts.Cluster.Nodes > 1 {
		return r.runCluster(spec)
	}
	def := r.Def

	// A 1-node "cluster" (or a plain single host) runs the classic
	// engine; only the scenario pseudo-faults need interpreting here.
	scen := scenarioFor(spec)
	if scen != nil && !r.Opts.Cluster.Enabled() {
		return nil, nil, fmt.Errorf("fault %s: cluster scenario faults require a cluster topology (-cluster)", spec.Function)
	}
	if spec != nil && spec.Node != 0 {
		return nil, nil, fmt.Errorf("fault %s: node %d does not exist on a %d-node topology", spec.Function, spec.Node, max(1, r.Opts.Cluster.Nodes))
	}
	// Scenario faults bypass the syscall injector: the injector runs the
	// census only, and the scheduled scenario action is the fault.
	ispec := spec
	if scen != nil {
		ispec = nil
	}

	// Prepare the machine: resume from the shared boot-prefix snapshot
	// when the workload allows it (the common case — Setup only registers
	// images and writes files), else boot fresh and replay Setup in the
	// legacy order. Both paths produce byte-identical archives; the fork
	// path just skips re-executing the prefix.
	var k *ntsim.Kernel
	forked := false
	if !r.Opts.FreshBoot {
		if snap, err := r.prefixSnapshot(); err == nil {
			k = snap.Fork()
			forked = true
		}
	}
	if k == nil {
		k = ntsim.NewKernel()
	}
	if r.Opts.Trace != nil {
		k.SetTrace(r.Opts.Trace)
	}
	// The telemetry collector (if enabled) must be installed before the
	// injector so the arming event is observed; it is per-run, so
	// parallel campaign workers never contend.
	rec := r.Opts.Telemetry.NewRecorder()
	var tel telemetry.Collector = telemetry.Nop{}
	if rec != nil {
		k.SetTelemetry(rec)
		tel = rec
	}
	runSpan := telemetry.StartSpan(tel, k.Now(), 0, telemetry.SpanRun)
	log := eventlog.New()
	mgr := scm.New(k, log)
	if !forked {
		def.Setup(k)
	}
	if err := mgr.CreateService(def.Service); err != nil {
		return nil, nil, fmt.Errorf("create service: %w", err)
	}
	injector := inject.New(k, def.Target, ispec)
	k.SetInterceptor(injector)

	// Start the server program, directly or through the middleware that
	// owns it.
	switch def.Supervision {
	case workload.Standalone:
		if err := mgr.StartService(def.Service.Name); err != nil {
			return nil, nil, fmt.Errorf("start service: %w", err)
		}
	case workload.MSCS:
		if _, err := mscs.Start(k, mgr, log, def.Service.Name, r.Opts.MSCSParams); err != nil {
			return nil, nil, fmt.Errorf("start mscs: %w", err)
		}
	case workload.Watchd:
		if _, err := watchd.Start(k, mgr, def.Service.Name, r.Opts.WatchdVersion); err != nil {
			return nil, nil, fmt.Errorf("start watchd: %w", err)
		}
	default:
		return nil, nil, fmt.Errorf("unknown supervision %v", def.Supervision)
	}

	tel.Emit(k.Now(), 0, telemetry.KindPhase, "service-start", 0, 0)

	// Wait for the server to come up (bounded; a faulted server may never
	// make it, and the client must still run to observe that). The
	// scheduling ceiling lets the kernel elide solo handoffs up to the
	// loop's own exit bound; SetServiceStatus requests attention, so the
	// poll below observes status transitions at exactly the quantum
	// boundaries it would have without elision.
	elide := !r.Opts.FreshBoot
	up := false
	upDeadline := k.Now().Add(r.Opts.ServerUpTimeout)
	if elide {
		k.SetSchedCeiling(upDeadline)
	}
	for k.Now().Before(upDeadline) {
		if st, _, _ := mgr.QueryServiceStatus(def.Service.Name); st == scm.Running {
			up = true
			break
		}
		if !k.Step() {
			break
		}
	}
	if up {
		tel.Emit(k.Now(), 0, telemetry.KindPhase, "server-up", 0, 0)
	} else {
		tel.Emit(k.Now(), 0, telemetry.KindPhase, "server-up-timeout", 0, 0)
	}

	// Run the client workload to completion or the run deadline.
	preClientPID := ntsim.PID(len(k.Processes()))
	_, report, err := def.SpawnClient(k)
	if err != nil {
		return nil, nil, fmt.Errorf("spawn client: %w", err)
	}
	postClientPID := ntsim.PID(len(k.Processes()))
	tel.Emit(k.Now(), 0, telemetry.KindPhase, "client-spawn", 0, 0)
	scenFired := false
	if scen != nil {
		k.Clock().ScheduleAt(k.Now().Add(scen.delay), func() {
			scenFired = true
			tel.Emit(k.Now(), 0, telemetry.KindPhase, "cluster-scenario:"+spec.Function, 0, 0)
			switch scen.kind {
			case scenServiceCrash:
				if pr, ok := mgr.ServiceProcess(def.Service.Name); ok && !pr.Terminated() {
					pr.Terminate(ntsim.ExitAccessViolation)
				}
			case scenNodeCrash:
				// The single node powers off: every server-side process
				// dies and the SCM stops. The clients are the paper's
				// remote observers, so they survive to record the outage.
				mgr.Shutdown()
				for _, pr := range k.Processes() {
					if pr.ID > preClientPID && pr.ID <= postClientPID {
						continue
					}
					if !pr.Terminated() {
						pr.Terminate(ntsim.ExitTerminated)
					}
				}
			case scenPartition:
				// One host, co-located clients: there is no link to cut.
			}
		})
	}
	deadline := k.Now().Add(r.Opts.RunDeadline)
	if elide {
		// Done is the client's final act before exiting — a scheduling
		// point — so the Done poll needs no attention hook; the ceiling
		// alone bounds the fast path.
		k.SetSchedCeiling(deadline)
	}
	for !report.Done && k.Now().Before(deadline) {
		if !k.Step() {
			break
		}
	}
	if elide {
		k.ClearSchedCeiling()
	}
	if report.Done {
		tel.Emit(k.Now(), 0, telemetry.KindPhase, "client-done", 0, 0)
		tel.Add(telemetry.CtrRunCompleted, 1)
	} else {
		tel.Emit(k.Now(), 0, telemetry.KindPhase, "run-deadline", 0, 0)
		tel.Add(telemetry.CtrRunDeadline, 1)
	}

	// Gather results.
	res := &RunResult{
		Completed:    report.Done,
		GotResponse:  report.AnyResponse(),
		Restarts:     countRestarts(k, log, def.Supervision),
		ActivatedFns: injector.ActivatedCount(),
		Injected:     injector.Injected(),
	}
	if spec != nil {
		res.Fault = *spec
		res.Activated = injector.Activated(spec.Function)
	}
	if scen != nil {
		// A scenario fault "activates" when its trigger fires.
		res.Activated = scenFired
		res.Injected = scenFired
	}
	if report.Done {
		res.ResponseSec = report.End.Sub(report.Start).Seconds()
		tel.Observe(telemetry.HistRunResponse, report.End.Sub(report.Start))
	}
	res.Outcome = Classify(report.AllSucceeded(), report.AnyRetried(), res.Restarts)
	res.Classes = classOutcomes(report)
	res.ServerCrash = anyTargetCrash(k, def)
	tel.Add(telemetry.CtrRunRestarts, int64(res.Restarts))
	if report.AnyRetried() {
		tel.Add(telemetry.CtrRunRetried, 1)
	}
	if tel.Enabled() {
		// Outcome classification as a trace event; the label concat only
		// runs when a recorder is listening.
		tel.Emit(k.Now(), 0, telemetry.KindPhase, "outcome:"+res.Outcome.String(), 0, 0)
	}

	// Workload termination.
	mgr.Shutdown()
	k.KillAll()
	runSpan.End(k.Now())
	res.Telemetry = rec
	if pan := k.Panics(); len(pan) != 0 {
		return nil, nil, fmt.Errorf("simulated code panicked: %s", strings.Join(pan, "; "))
	}
	return res, injector.ActivatedFunctions(), nil
}

// countRestarts reads the middleware's restart evidence, exactly the way
// §3 describes the collector working: MSCS writes to the NT event log,
// watchd to its own log file. Stand-alone services leave no restart
// evidence by construction.
func countRestarts(k *ntsim.Kernel, log *eventlog.Log, s workload.Supervision) int {
	switch s {
	case workload.MSCS:
		return log.CountEvent(mscs.Source, mscs.EventResourceRestart)
	case workload.Watchd:
		data, ok := k.VFS().ReadFile(watchd.LogPath)
		if !ok {
			return 0
		}
		n := 0
		for _, line := range strings.Split(string(data), "\r\n") {
			if strings.Contains(line, ": restarted ") {
				n++
			}
		}
		return n
	default:
		return 0
	}
}

// anyTargetCrash reports whether any process matched by the target
// selector exited abnormally during the run.
func anyTargetCrash(k *ntsim.Kernel, def workload.Definition) bool {
	for _, p := range k.Processes() {
		if !def.Target(k, p.ID, p.Image) {
			continue
		}
		if p.Terminated() && p.ExitCode() != 0 && p.ExitCode() != ntsim.ExitTerminated {
			return true
		}
	}
	return false
}
