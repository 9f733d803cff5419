// Package mscs simulates the Microsoft Cluster Server generic service
// resource monitor — the default, unspecialized monitor the paper uses
// ("only the generic service resource monitor is used", §4.1). It brings
// the service resource online through the SCM, polls its status
// (LooksAlive/IsAlive), and restarts it on failure, logging restart actions
// to the NT event log (which is how the DTS data collector detects
// MSCS-initiated restarts).
//
// The generic monitor's default limits are its blind spots: an online
// attempt must reach RUNNING within the pending timeout, and a failure
// incident is abandoned after a bounded number of restart attempts — which
// is exactly what loses against services whose faulted starts hold the SCM
// database locked for longer (Apache's 30 s wait hint, SQL Server's 20 s).
//
// MSCS runs one resource monitor per cluster node; the paper's testbed is
// the one-node cluster. The nodes agree on a single group owner (the node
// whose SCM actually runs the service) and move ownership when the
// owner's resource fails permanently or the owner node stops answering.
// The shared ownership record stands in for the quorum database;
// everything observable — SCM calls, event-log records, sleeps — happens
// on the owning node's own kernel, so per-node state stays fully isolated
// and per-node eventlogs tell the failover story.
package mscs

import (
	"fmt"
	"time"

	"ntdts/internal/eventlog"
	"ntdts/internal/ntsim"
	"ntdts/internal/scm"
)

// Source is the event-log source name MSCS logs under.
const Source = "ClusSvc"

// EventResourceRestart is logged when the monitor restarts the service.
const EventResourceRestart uint32 = 1024

// EventResourceFailed is logged when the monitor gives up on the resource.
const EventResourceFailed uint32 = 1069 // matches the real cluster event id

// EventGroupFailover is logged when the group moves to another node.
const EventGroupFailover uint32 = 1204

// Params are the generic resource monitor's tunables (defaults mirror the
// behaviour described in §4).
type Params struct {
	// LooksAlivePoll is the steady-state status polling interval.
	LooksAlivePoll time.Duration
	// OnlineTimeout is how long an online attempt may stay pending.
	OnlineTimeout time.Duration
	// OnlinePoll is the status polling interval during online waits.
	OnlinePoll time.Duration
	// RetryWait is the pause between restart attempts in an incident.
	RetryWait time.Duration
	// MaxAttempts is the per-incident restart attempt budget.
	MaxAttempts int

	// ProbePoll is a standby monitor's owner-health polling interval.
	ProbePoll time.Duration
	// TakeoverGrace is how long a standby must continuously observe the
	// owner unhealthy before claiming the group, scaled by the standby's
	// cyclic rank so exactly one node wins the claim deterministically.
	TakeoverGrace time.Duration
}

// DefaultParams returns the generic monitor defaults.
func DefaultParams() Params {
	return Params{
		LooksAlivePoll: 5 * time.Second,
		OnlineTimeout:  22 * time.Second,
		OnlinePoll:     1 * time.Second,
		RetryWait:      2 * time.Second,
		MaxAttempts:    2,
		ProbePoll:      2 * time.Second,
		TakeoverGrace:  5 * time.Second,
	}
}

// Image is the resource monitor's process image name.
const Image = "resrcmon.exe"

// ClusterNode is one node's view handed to StartCluster: its kernel, its
// SCM, and its NT event log. The service must already be registered with
// every node's SCM.
type ClusterNode struct {
	Kernel *ntsim.Kernel
	Mgr    *scm.Manager
	Log    *eventlog.Log
}

// group is the shared ownership record (the quorum database stand-in).
// It is only read and written at deterministic scheduler instants by the
// per-node monitor processes, which all live on one shared-clock machine.
type group struct {
	owner int
}

// StartCluster spawns one resource monitor process per node and brings
// the group online on node 0. reachable reports whether two nodes are
// both up and their heartbeat link is uncut; it is sampled at scheduler
// instants, so takeover decisions are deterministic, and it may be nil on
// a one-node cluster, which has no peer to probe. It returns the monitor
// processes in node order.
func StartCluster(nodes []ClusterNode, serviceName string, params Params, reachable func(a, b int) bool) ([]*ntsim.Process, error) {
	if params.MaxAttempts == 0 {
		params = DefaultParams()
	}
	if params.ProbePoll <= 0 {
		params.ProbePoll = DefaultParams().ProbePoll
	}
	if params.TakeoverGrace <= 0 {
		params.TakeoverGrace = DefaultParams().TakeoverGrace
	}
	g := &group{owner: 0}
	procs := make([]*ntsim.Process, len(nodes))
	for i := range nodes {
		self := i
		node := nodes[i]
		node.Kernel.RegisterImage(Image, func(p *ntsim.Process) uint32 {
			return clusterMonitor(p, self, node, len(nodes), g, serviceName, params, reachable)
		})
		// A lone monitor keeps the single host's command line, so a
		// one-node cluster spawns the very same process.
		cmd := Image + " " + serviceName
		if len(nodes) > 1 {
			cmd = fmt.Sprintf("%s node=%d", cmd, self)
		}
		pr, err := node.Kernel.Spawn(Image, cmd, 0)
		if err != nil {
			return nil, err
		}
		procs[i] = pr
	}
	return procs, nil
}

// clusterMonitor is one node's resource monitor main loop: serve while
// owning the group, watch the owner while standing by.
func clusterMonitor(p *ntsim.Process, self int, node ClusterNode, n int, g *group, name string, params Params, reachable func(int, int) bool) uint32 {
	k := p.Kernel()
	everOwner := false
	for {
		if g.owner == self {
			restart := everOwner
			everOwner = true
			if serveAsOwner(p, self, node, g, name, params, restart) {
				// Usurped while still healthy (a partition separated us
				// from the majority): step down to standby duty. The
				// local service instance is left as-is; no client can
				// reach an isolated node anyway.
				continue
			}
			// Permanent local failure: hand the group to the next
			// healthy, reachable peer — the cross-node failover.
			next := -1
			for d := 1; d < n; d++ {
				cand := (self + d) % n
				if reachable(self, cand) {
					next = cand
					break
				}
			}
			if next < 0 {
				return 1 // nowhere to fail over to: the group is offline
			}
			node.Log.Append(k.Now(), Source, eventlog.Warning, EventGroupFailover,
				fmt.Sprintf("Cluster group '%s' failing over from node %d to node %d.", name, self, next))
			g.owner = next
			continue
		}

		// Standby: probe the owner's health.
		p.SleepFor(params.ProbePoll)
		owner := g.owner
		if owner == self || reachable(self, owner) {
			continue
		}
		// Owner looks dead. Wait out a grace period scaled by this
		// node's cyclic rank, so the nearest standby claims first and a
		// farther one only if the claim never lands.
		rank := (self - owner + n) % n
		deadline := k.Now().Add(time.Duration(rank) * params.TakeoverGrace)
		claim := true
		for k.Now().Before(deadline) {
			p.SleepFor(params.ProbePoll)
			if g.owner != owner || reachable(self, g.owner) {
				claim = false
				break
			}
		}
		if !claim || g.owner != owner {
			continue
		}
		node.Log.Append(k.Now(), Source, eventlog.Warning, EventGroupFailover,
			fmt.Sprintf("Cluster group '%s' failing over from node %d to node %d.", name, owner, self))
		g.owner = self
	}
}

// serveAsOwner runs the owning node's resource duty: bring the service
// online on this node's SCM and poll LooksAlive. It returns true when
// ownership moved away while the resource was healthy, false when the
// resource failed permanently here (the caller hands the group over).
func serveAsOwner(p *ntsim.Process, self int, node ClusterNode, g *group, name string, params Params, isRestart bool) bool {
	k := p.Kernel()
	fail := func() {
		node.Log.Append(k.Now(), Source, eventlog.Error, EventResourceFailed,
			fmt.Sprintf("Cluster resource '%s' failed on node %d.", name, self))
	}
	if !clusterOnline(p, node, name, params, isRestart) {
		fail()
		return false
	}
	for {
		p.SleepFor(params.LooksAlivePoll)
		if g.owner != self {
			return true
		}
		st, _, err := node.Mgr.QueryServiceStatus(name)
		if err != nil {
			fail()
			return false
		}
		switch st {
		case scm.Running, scm.StartPending:
			continue
		case scm.Stopped, scm.StopPending:
			if !clusterOnline(p, node, name, params, true) {
				fail()
				return false
			}
		}
	}
}

// clusterOnline is one online incident on one node: up to MaxAttempts
// starts through that node's SCM, each required to reach RUNNING within
// OnlineTimeout, honoring the node's SCM database lock.
func clusterOnline(p *ntsim.Process, node ClusterNode, name string, params Params, isRestart bool) bool {
	k := p.Kernel()
	for attempt := 1; attempt <= params.MaxAttempts; attempt++ {
		err := node.Mgr.StartService(name)
		switch err {
		case nil:
			if waitRunning(p, node.Mgr, name, params) {
				if isRestart || attempt > 1 {
					node.Log.Append(k.Now(), Source, eventlog.Warning,
						EventResourceRestart,
						"Cluster resource '"+name+"' was restarted.")
				}
				return true
			}
		case ntsim.ErrServiceAlreadyRunning:
			return true
		case ntsim.ErrServiceDatabaseLocked:
			// This node's SCM is holding the database for a pending
			// start; the attempt is spent.
		default:
			// Unexpected SCM failure; attempt spent.
		}
		p.SleepFor(params.RetryWait)
	}
	return false
}

// waitRunning polls the service status until RUNNING, giving up when the
// online timeout elapses or the service lands in STOPPED.
func waitRunning(p *ntsim.Process, mgr *scm.Manager, name string, params Params) bool {
	deadline := p.Kernel().Now().Add(params.OnlineTimeout)
	for {
		st, _, err := mgr.QueryServiceStatus(name)
		if err != nil {
			return false
		}
		switch st {
		case scm.Running:
			return true
		case scm.Stopped:
			return false
		}
		if !p.Kernel().Now().Before(deadline) {
			return false
		}
		p.SleepFor(params.OnlinePoll)
	}
}
