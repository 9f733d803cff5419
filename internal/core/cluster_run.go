package core

import (
	"fmt"
	"strings"
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

// Cluster scenario faults. Like the DTSChaos* supervisor hooks, these are
// reserved pseudo-function names riding the ordinary FaultSpec shape so
// they journal, shard, resume and report exactly like KERNEL32 faults.
// The field convention: Node addresses the target node, Invocation is the
// trigger delay in seconds after the client starts (1-based like a real
// invocation count), Param is the heal delay in seconds for partitions
// (0 = the partition never heals), and Type is carried but ignored (use
// "flip" canonically, as the chaos specs do).
const (
	// ClusterNodeCrashFunction powers off a node: all its processes die
	// and its links go dark.
	ClusterNodeCrashFunction = "DTSClusterNodeCrash"
	// ClusterServiceCrashFunction kills the service process on a node,
	// leaving the node (and its middleware) up to react.
	ClusterServiceCrashFunction = "DTSClusterServiceCrash"
	// ClusterPartitionFunction cuts every link between a node and the
	// rest of the network, healing after Param seconds.
	ClusterPartitionFunction = "DTSClusterPartition"
)

// scenarioFault is a decoded cluster scenario spec.
type scenarioFault struct {
	kind  scenarioKind
	node  int
	delay time.Duration
	heal  time.Duration
}

type scenarioKind int

const (
	scenNodeCrash scenarioKind = iota + 1
	scenServiceCrash
	scenPartition
)

// scenarioFor decodes a scenario pseudo-fault, or returns nil for
// ordinary specs (including nil).
func scenarioFor(spec *inject.FaultSpec) *scenarioFault {
	if spec == nil {
		return nil
	}
	var kind scenarioKind
	switch spec.Function {
	case ClusterNodeCrashFunction:
		kind = scenNodeCrash
	case ClusterServiceCrashFunction:
		kind = scenServiceCrash
	case ClusterPartitionFunction:
		kind = scenPartition
	default:
		return nil
	}
	return &scenarioFault{
		kind:  kind,
		node:  spec.Node,
		delay: time.Duration(spec.Invocation) * time.Second,
		heal:  time.Duration(spec.Param) * time.Second,
	}
}

// runCluster is the multi-node counterpart of run: N node kernels forked
// from the same boot prefix (or booted fresh), one shared clock, per-node
// SCM/eventlog/injector, a virtual network, and the client workload on
// its own client-host kernel dialing through the routing policy. The
// lifecycle and telemetry phases mirror run exactly so cluster archives
// and traces are comparable with single-host ones.
//
// Cluster runs never use the scheduler-elision fast path (its per-kernel
// reasoning is unsound on a machine with more than one node, and
// runCluster sets no ceiling), so a cluster run costs more wall-clock
// than a single-host run; the BenchmarkClusterCampaign gate bounds the
// multiple.
func (r *Runner) runCluster(spec *inject.FaultSpec) (*RunResult, map[string]bool, error) {
	def := r.Def
	n := r.Opts.Cluster.Nodes
	if _, err := cluster.ParsePolicy(r.Opts.Cluster.Routing); err != nil {
		return nil, nil, err
	}
	policy, _ := cluster.ParsePolicy(r.Opts.Cluster.Routing)

	scen := scenarioFor(spec)
	var kspec *inject.FaultSpec
	if spec != nil {
		if spec.Node < 0 || spec.Node >= n {
			return nil, nil, fmt.Errorf("fault %s: node %d does not exist on a %d-node topology", spec.Function, spec.Node, n)
		}
		if scen == nil {
			kspec = spec
		}
	}

	// Boot the nodes: every node forks the same boot prefix (first fork
	// positions the shared clock), or boots fresh replaying Setup when
	// the workload cannot be snapshotted.
	m := ntsim.NewMachine()
	var snap *ntsim.PrefixSnapshot
	if !r.Opts.FreshBoot {
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
	// The client host is one more machine node: it runs only the client
	// programs (SpawnClient registers their images), so it needs no
	// workload setup.
	clientK := m.AddKernel()

	rec := r.Opts.Telemetry.NewRecorder()
	var tel telemetry.Collector = telemetry.Nop{}
	if rec != nil {
		for _, k := range m.Kernels() {
			k.SetTelemetry(rec)
		}
		tel = rec
	}
	if r.Opts.Trace != nil {
		for _, k := range m.Kernels() {
			k.SetTrace(r.Opts.Trace)
		}
	}
	runSpan := telemetry.StartSpan(tel, m.Now(), 0, telemetry.SpanRun)

	// Per-node NT: eventlog, SCM, service registration, injector. The
	// fault spec arms only on its addressed node; every other node (and
	// node 0 for scenario/calibration runs) runs the census-only
	// injector.
	logs := make([]*eventlog.Log, n)
	mgrs := make([]*scm.Manager, n)
	injectors := make([]*inject.Injector, n)
	for i := range nodes {
		logs[i] = eventlog.New()
		mgrs[i] = scm.New(nodes[i], logs[i])
		if err := mgrs[i].CreateService(def.Service); err != nil {
			return nil, nil, fmt.Errorf("node %d: create service: %w", i, err)
		}
		ispec := kspec
		if kspec != nil && kspec.Node != i {
			ispec = nil
		}
		injectors[i] = inject.New(nodes[i], def.Target, ispec)
		nodes[i].SetInterceptor(injectors[i])
	}

	// The virtual network: one endpoint per node plus the client host.
	net := cluster.NewNetwork(m.Clock(), n+1, cluster.DefaultLatency)
	topo := cluster.NewTopology(nodes, net)
	router := cluster.NewRouter(topo, policy)

	// Start the service, directly or through the middleware. Standalone
	// and watchd are active-active (each node runs its own instance);
	// MSCS runs its cluster resource monitor, active on the owner only.
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
		if _, err := mscs.StartCluster(cns, def.Service.Name, r.Opts.MSCSParams, topo.Reachable, topo.Down); err != nil {
			return nil, nil, fmt.Errorf("start mscs cluster: %w", err)
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

	// Wait until any live node reports RUNNING (with MSCS that is the
	// group owner; active-active modes race their nodes up together).
	clusterUp := func() bool {
		for i := range nodes {
			if topo.Down(i) {
				continue
			}
			if st, _, _ := mgrs[i].QueryServiceStatus(def.Service.Name); st == scm.Running {
				return true
			}
		}
		return false
	}
	up := false
	upDeadline := m.Now().Add(r.Opts.ServerUpTimeout)
	for m.Now().Before(upDeadline) {
		if clusterUp() {
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

	// Clients live on the client host and reach the service through the
	// routing policy over the virtual network.
	workload.RegisterDialer(clientK, func(p *ntsim.Process, path string) (workload.Conn, ntsim.Errno) {
		c, errno := router.Dial(p, path)
		if c == nil {
			return nil, errno
		}
		return c, errno
	})
	_, report, err := def.SpawnClient(clientK)
	if err != nil {
		return nil, nil, fmt.Errorf("spawn client: %w", err)
	}
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
				crashed[target] = true
				topo.MarkDown(target)
				mgrs[target].Shutdown()
				for _, pr := range nodes[target].Processes() {
					if !pr.Terminated() {
						pr.Terminate(ntsim.ExitTerminated)
					}
				}
			case scenServiceCrash:
				if pr, ok := mgrs[target].ServiceProcess(def.Service.Name); ok && !pr.Terminated() {
					pr.Terminate(ntsim.ExitAccessViolation)
				}
			case scenPartition:
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
	for !report.Done && m.Now().Before(deadline) {
		if !m.Step() {
			break
		}
	}
	if report.Done {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "client-done", 0, 0)
		tel.Add(telemetry.CtrRunCompleted, 1)
	} else {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "run-deadline", 0, 0)
		tel.Add(telemetry.CtrRunDeadline, 1)
	}

	// Gather: the union of per-node evidence, plus the per-node slices.
	activated := make(map[string]bool)
	for i := range nodes {
		for fn := range injectors[i].ActivatedFunctions() {
			activated[fn] = true
		}
	}
	res := &RunResult{
		Completed:    report.Done,
		GotResponse:  report.AnyResponse(),
		ActivatedFns: len(activated),
		Nodes:        make([]NodeStat, n),
	}
	restarts, failovers := 0, 0
	for i := range nodes {
		rs := countRestarts(nodes[i], logs[i], def.Supervision)
		restarts += rs
		res.Nodes[i] = NodeStat{
			Node:      i,
			Restarts:  rs,
			Failovers: logs[i].CountEvent(mscs.Source, mscs.EventGroupFailover),
			Events:    logs[i].Count(),
			Crashed:   crashed[i],
		}
		failovers += res.Nodes[i].Failovers
	}
	res.Restarts = restarts
	if spec != nil {
		res.Fault = *spec
		if kspec != nil {
			res.Activated = injectors[kspec.Node].Activated(kspec.Function)
			res.Injected = injectors[kspec.Node].Injected()
		} else {
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
	for i := range nodes {
		if anyTargetCrash(nodes[i], def) {
			res.ServerCrash = true
			break
		}
	}
	tel.Add(telemetry.CtrRunRestarts, int64(res.Restarts))
	if report.AnyRetried() {
		tel.Add(telemetry.CtrRunRetried, 1)
	}
	if tel.Enabled() {
		tel.Emit(m.Now(), 0, telemetry.KindPhase, "outcome:"+res.Outcome.String(), 0, 0)
	}

	// Workload termination, machine-wide.
	for i := range nodes {
		mgrs[i].Shutdown()
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
