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
	"ntdts/internal/ntsim/cluster"
	"ntdts/internal/scm"
	"ntdts/internal/telemetry"
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
	// a run whose first attempt committed.
	Retries     int  `json:"retries,omitempty"`
	Quarantined bool `json:"quarantined,omitempty"`

	// Telemetry is the run's collector when RunnerOptions.Telemetry is
	// enabled (nil otherwise). It is per-run — parallel campaign workers
	// never share one — and is merged in run-index order by the campaign,
	// so exports stay byte-identical at any worker count. Excluded from
	// the JSON archive; export traces with dts -trace-out instead.
	Telemetry *telemetry.Recorder `json:"-"`
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
	// Telemetry enables the structured per-run telemetry layer: every
	// run builds its own collector (so parallel workers never contend)
	// capturing the event ring, counters and virtual-time histograms,
	// attached to RunResult.Telemetry. It is the only trace a run leaves.
	Telemetry telemetry.Options
	// FreshBoot disables every run-engine fast path: no prefix-snapshot
	// forks, no scheduler quantum elision or burst continuation (both
	// ride the machine's scheduling ceiling, which FreshBoot never sets),
	// no dormant-run copies — the engine exactly as it was before those
	// optimizations. It is the regression baseline: archives must be
	// byte-identical with it on or off (the CI bench gate cmp's them) and
	// the benchmarks report the snapshot path's speedup against it.
	FreshBoot bool
	// Cluster sizes the machine every run executes on (see
	// ClusterConfig). The zero value is the paper's single host.
	Cluster ClusterConfig
}

// ClusterConfig configures the simulated cluster topology runs execute
// on. Every run executes on max(1, Nodes) node kernels of one machine
// under one shared clock, through one lifecycle. Nodes == 0 is the
// paper's single host. Nodes == 1 is the same one-node machine with the
// cluster scenario faults (DTSCluster*) enabled, which is what makes the
// cluster layer a provable superset. Nodes >= 2 adds a client host that
// reaches the nodes through the routing policy over a virtual network.
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

// checkFault returns the topology's routing policy, or why spec (nil:
// the calibration run) cannot run on it: an unknown routing policy, a
// node the topology lacks, or a scenario fault on no cluster.
// Campaign.Prepare checks every listed fault before the first run, and
// run checks each run's spec again, which covers dts -fault's lone spec.
func (c ClusterConfig) checkFault(spec *inject.FaultSpec) (cluster.Policy, error) {
	policy, err := cluster.ParsePolicy(c.Routing)
	if err != nil || spec == nil {
		return policy, err
	}
	if scenarioFor(spec) != nil && !c.Enabled() {
		return policy, fmt.Errorf("fault %s: cluster scenario faults require a cluster topology (-cluster)", spec.Function)
	}
	if n := max(1, c.Nodes); spec.Node < 0 || spec.Node >= n {
		return policy, fmt.Errorf("fault %s: node %d does not exist on a %d-node topology", spec.Function, spec.Node, n)
	}
	return policy, nil
}

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
	}
}

// Runner executes fault-injection runs for one workload definition.
// Runners come from NewRunner, which sets up the caches below; Clone
// copies one.
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
	return &Runner{Def: def, Opts: opts, prefix: &prefixCache{}, dormant: &dormantCache{}}
}

// Clone returns an independent Runner for a campaign worker. A Runner
// holds no per-run state — every run builds its own kernel — so a shallow
// copy suffices (the boot-prefix snapshot and dormant-run caches are
// deliberately shared); Clone exists to make per-worker ownership
// explicit.
func (r *Runner) Clone() *Runner {
	c := *r
	return &c
}

// prefixSnapshot builds (once) and returns the shared boot-prefix
// snapshot: a donor kernel runs the workload's Setup and is captured at
// the quiescent pre-spawn instant. Safe for concurrent callers.
func (r *Runner) prefixSnapshot() (*ntsim.PrefixSnapshot, error) {
	c := r.prefix
	c.once.Do(func() {
		donor := ntsim.NewKernel()
		r.Def.Setup(donor)
		c.snap, c.err = donor.SnapshotPrefix()
	})
	return c.snap, c.err
}

// Run executes one fault-injection run. A nil spec is the fault-free
// calibration run. A dormant spec (see Dormant) returns a relabelled
// copy of the runner's first executed dormant run on the spec's node
// instead of simulating; until that run exists, dormant specs on that
// node simply execute.
func (r *Runner) Run(spec *inject.FaultSpec) (*RunResult, error) {
	ok := r.usesTemplate(spec)
	if ok {
		if t := r.dormant.get(spec.Node); t != nil && Dormant(*spec, t.activated) {
			return copyDormant(t.res, *spec), nil
		}
	}
	res, activated, err := r.run(spec)
	if ok && err == nil && Dormant(*spec, activated) {
		r.dormant.offer(res, activated)
	}
	return res, err
}

// ActivationScan runs the fault-free calibration pass and returns the set
// of functions the target activates on any node (the paper's Table 1
// measurement and the input to the skip rule).
func (r *Runner) ActivationScan() (map[string]bool, *RunResult, error) {
	res, activated, err := r.run(nil)
	return activated, res, err
}

// run is the per-run lifecycle of the paper's Figure 1: prepare the
// workload programs, start the server (injecting the fault), wait for the
// server to be up, start the client, wait for workload termination, and
// gather results. Besides the record it returns the functions the target
// called: for a kernel fault those on the faulted node, the set its
// dormancy is judged by, else those on any node (the record's
// ActivatedFns counts that union either way). Every run executes on
// max(1, Cluster.Nodes) nodes of one machine under one shared clock,
// each node with its own SCM, eventlog and injector. A single host is
// the one-node case, and only four things set it apart: its clients
// share node 0's kernel, so there is no client host, router or dialer; a
// node crash spares those clients; a partition has no link to cut; and
// its record carries no per-node slices.
func (r *Runner) run(spec *inject.FaultSpec) (*RunResult, map[string]bool, error) {
	def := r.Def
	n := max(1, r.Opts.Cluster.Nodes)
	policy, err := r.Opts.Cluster.checkFault(spec)
	if err != nil {
		return nil, nil, err
	}
	// Scenario faults bypass the syscall injector: every injector runs the
	// census only, and the scheduled scenario action is the fault.
	scen := scenarioFor(spec)
	var kspec *inject.FaultSpec
	if spec != nil && scen == nil {
		kspec = spec
	}

	// Prepare the machine: every node resumes from the shared boot-prefix
	// snapshot when the workload allows it (the common case — Setup only
	// registers images and writes files; the first fork positions the
	// shared clock), else boots fresh and replays Setup. Both paths produce
	// byte-identical archives; the fork just skips re-executing the prefix.
	m := ntsim.NewMachine()
	var snap *ntsim.PrefixSnapshot
	if !r.Opts.FreshBoot {
		// The error only says why Setup cannot be snapshotted; snap is
		// then nil and every node boots fresh.
		snap, _ = r.prefixSnapshot()
	}
	nodes := make([]*ntsim.Kernel, n)
	for i := range nodes {
		if snap != nil {
			nodes[i] = snap.ForkInto(m)
		} else {
			nodes[i] = m.AddKernel()
			def.Setup(nodes[i])
		}
	}
	// A cluster's clients live on a client host, one more machine node,
	// and reach the service through the routing policy over a virtual
	// network with one endpoint per node plus the client host. MSCS
	// probes its peers over the same network; a lone node has none.
	clientK := nodes[0]
	var net *cluster.Network
	var topo *cluster.Topology
	var reachable func(a, b int) bool
	if n > 1 {
		clientK = m.AddKernel()
		net = cluster.NewNetwork(m.Clock(), n+1, cluster.DefaultLatency)
		topo = cluster.NewTopology(nodes, net)
		reachable = topo.Reachable
		router := cluster.NewRouter(topo, policy)
		workload.RegisterDialer(clientK, func(p *ntsim.Process, path string) (workload.Conn, ntsim.Errno) {
			c, errno := router.Dial(p, path)
			if c == nil {
				return nil, errno
			}
			return c, errno
		})
	}

	// The telemetry collector (if enabled) must be installed before the
	// injectors so the arming event is observed; it is per-run, so
	// parallel campaign workers never contend.
	rec := r.Opts.Telemetry.NewRecorder()
	var tel telemetry.Collector = telemetry.Nop{}
	if rec != nil {
		for _, k := range m.Kernels() {
			k.SetTelemetry(rec)
		}
		tel = rec
	}
	runSpan := telemetry.StartSpan(tel, m.Now(), 0, telemetry.SpanRun)

	// Per-node NT: eventlog, SCM, service registration, injector. A
	// kernel fault arms only on its addressed node; every other node runs
	// the census-only injector.
	logs := make([]*eventlog.Log, n)
	mgrs := make([]*scm.Manager, n)
	injectors := make([]*inject.Injector, n)
	for i, k := range nodes {
		logs[i] = eventlog.New()
		mgrs[i] = scm.New(k, logs[i])
		if err := mgrs[i].CreateService(def.Service); err != nil {
			return nil, nil, fmt.Errorf("node %d: create service: %w", i, err)
		}
		ispec := kspec
		if kspec != nil && kspec.Node != i {
			ispec = nil
		}
		injectors[i] = inject.New(k, def.Target, ispec)
		k.SetInterceptor(injectors[i])
	}

	// Start the server program, directly or through the middleware that
	// owns it. Standalone and watchd are active-active (each node runs its
	// own instance); MSCS runs its resource monitor on every node, active
	// on the group owner only.
	switch def.Supervision {
	case workload.Standalone:
		for i := range nodes {
			if err := mgrs[i].StartService(def.Service.Name); err != nil {
				return nil, nil, fmt.Errorf("node %d: start service: %w", i, err)
			}
		}
	case workload.MSCS:
		cns := make([]mscs.ClusterNode, n)
		for i := range nodes {
			cns[i] = mscs.ClusterNode{Kernel: nodes[i], Mgr: mgrs[i], Log: logs[i]}
		}
		if _, err := mscs.StartCluster(cns, def.Service.Name, mscs.DefaultParams(), reachable); err != nil {
			return nil, nil, fmt.Errorf("start mscs: %w", err)
		}
	case workload.Watchd:
		for i := range nodes {
			if _, err := watchd.Start(nodes[i], mgrs[i], def.Service.Name, r.Opts.WatchdVersion); err != nil {
				return nil, nil, fmt.Errorf("node %d: start watchd: %w", i, err)
			}
		}
	default:
		return nil, nil, fmt.Errorf("unknown supervision %v", def.Supervision)
	}

	tel.Emit(m.Now(), 0, telemetry.KindPhase, "service-start", 0, 0)

	// Wait until any node reports RUNNING (with MSCS that is the group
	// owner; active-active modes race their nodes up together). No
	// scenario is armed yet, so every node is live. The wait is bounded: a
	// faulted server may never make it, and the client must still run to
	// observe that. The machine's scheduling ceiling lets a process that
	// is alone on every node elide its handoffs up to the loop's own exit
	// bound; SetServiceStatus on any node raises the machine's attention
	// flag, so the poll below observes status transitions at exactly the
	// quantum boundaries it would have without elision.
	elide := !r.Opts.FreshBoot
	upDeadline := m.Now().Add(r.Opts.ServerUpTimeout)
	if elide {
		m.SetSchedCeiling(upDeadline)
	}
	anyUp := func() bool {
		for _, mgr := range mgrs {
			if st, _, _ := mgr.QueryServiceStatus(def.Service.Name); st == scm.Running {
				return true
			}
		}
		return false
	}
	up := false
	for m.Now().Before(upDeadline) {
		if anyUp() {
			up = true
			break
		}
		if !m.Step() {
			break
		}
	}
	if up {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "server-up", 0, 0)
	} else {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "server-up-timeout", 0, 0)
	}

	// Run the client workload to completion or the run deadline.
	preClientPID := ntsim.PID(len(clientK.Processes()))
	_, report, err := def.SpawnClient(clientK)
	if err != nil {
		return nil, nil, fmt.Errorf("spawn client: %w", err)
	}
	postClientPID := ntsim.PID(len(clientK.Processes()))
	tel.Emit(m.Now(), 0, telemetry.KindPhase, "client-spawn", 0, 0)

	// Arm the scenario trigger.
	crashed := make([]bool, n)
	scenFired := false
	if scen != nil {
		target := scen.node
		m.Clock().ScheduleAt(m.Now().Add(scen.delay), func() {
			scenFired = true
			tel.Emit(m.Now(), 0, telemetry.KindPhase, "cluster-scenario:"+spec.Function, uint64(target), 0)
			switch scen.kind {
			case scenNodeCrash:
				// The node powers off: its links go dark, its SCM stops and
				// its processes die. Clients sharing a lone node's kernel
				// are the paper's remote observers, so they survive to
				// record the outage.
				crashed[target] = true
				if topo != nil {
					topo.MarkDown(target)
				}
				mgrs[target].Shutdown()
				for _, pr := range nodes[target].Processes() {
					if nodes[target] == clientK && pr.ID > preClientPID && pr.ID <= postClientPID {
						continue
					}
					if !pr.Terminated() {
						pr.Terminate(ntsim.ExitTerminated)
					}
				}
			case scenServiceCrash:
				if pr, ok := mgrs[target].ServiceProcess(def.Service.Name); ok && !pr.Terminated() {
					pr.Terminate(ntsim.ExitAccessViolation)
				}
			case scenPartition:
				if net == nil {
					break // one host, co-located clients: no link to cut
				}
				net.Isolate(target, true)
				if scen.heal > 0 {
					m.Clock().ScheduleAfter(scen.heal, func() {
						if !topo.Down(target) {
							net.Isolate(target, false)
						}
					})
				}
			}
		})
	}

	deadline := m.Now().Add(r.Opts.RunDeadline)
	if elide {
		// Done is the client's final act before exiting — a scheduling
		// point — so the Done poll needs no attention hook; the ceiling
		// alone bounds the fast path.
		m.SetSchedCeiling(deadline)
	}
	for !report.Done && m.Now().Before(deadline) {
		if !m.Step() {
			break
		}
	}
	if elide {
		m.ClearSchedCeiling()
	}
	if report.Done {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "client-done", 0, 0)
		tel.Add(telemetry.CtrRunCompleted, 1)
	} else {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "run-deadline", 0, 0)
		tel.Add(telemetry.CtrRunDeadline, 1)
	}

	// Gather: the union of per-node evidence, plus the per-node slices on
	// a cluster.
	activated := injectors[0].ActivatedFunctions()
	for _, in := range injectors[1:] {
		for fn := range in.ActivatedFunctions() {
			activated[fn] = true
		}
	}
	res := &RunResult{
		Completed:    report.Done,
		GotResponse:  report.AnyResponse(),
		ActivatedFns: len(activated),
	}
	if n > 1 {
		res.Nodes = make([]NodeStat, n)
	}
	failovers := 0
	for i, k := range nodes {
		st := NodeStat{
			Node:      i,
			Restarts:  countRestarts(k, logs[i], def.Supervision),
			Failovers: logs[i].CountEvent(mscs.Source, mscs.EventGroupFailover),
			Events:    logs[i].Count(),
			Crashed:   crashed[i],
		}
		res.Restarts += st.Restarts
		failovers += st.Failovers
		if res.Nodes != nil {
			res.Nodes[i] = st
		}
		res.ServerCrash = res.ServerCrash || anyTargetCrash(k, def)
	}
	if spec != nil {
		res.Fault = *spec
		if kspec != nil {
			in := injectors[kspec.Node]
			res.Activated = in.Activated(kspec.Function)
			res.Injected = in.Injected()
			if n > 1 { // on one node the union is the node's own set
				activated = in.ActivatedFunctions()
			}
		} else {
			// A scenario fault "activates" when its trigger fires.
			res.Activated = scenFired
			res.Injected = scenFired
		}
	}
	if report.Done {
		res.ResponseSec = report.End.Sub(report.Start).Seconds()
		tel.Observe(telemetry.HistRunResponse, report.End.Sub(report.Start))
	}
	// A cross-node failover is MSCS's restart-equivalent recovery, so it
	// counts toward the §3 classification even though res.Restarts keeps
	// reporting in-place service restarts only.
	res.Outcome = Classify(report.AllSucceeded(), report.AnyRetried(), res.Restarts+failovers)
	res.Classes = classOutcomes(report)
	tel.Add(telemetry.CtrRunRestarts, int64(res.Restarts))
	if report.AnyRetried() {
		tel.Add(telemetry.CtrRunRetried, 1)
	}
	if tel.Enabled() {
		// Outcome classification as a trace event; the label concat only
		// runs when a recorder is listening.
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "outcome:"+res.Outcome.String(), 0, 0)
	}

	// Workload termination, machine-wide.
	for _, mgr := range mgrs {
		mgr.Shutdown()
	}
	m.KillAll()
	runSpan.End(m.Now())
	res.Telemetry = rec
	var pan []string
	for _, k := range m.Kernels() {
		pan = append(pan, k.Panics()...)
	}
	if len(pan) != 0 {
		return nil, nil, fmt.Errorf("simulated code panicked: %s", strings.Join(pan, "; "))
	}
	return res, activated, nil
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
