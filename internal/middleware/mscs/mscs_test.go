package mscs

import (
	"testing"
	"time"

	"ntdts/internal/eventlog"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/scm"
)

type rig struct {
	k   *ntsim.Kernel
	mgr *scm.Manager
	log *eventlog.Log
}

// newRig registers a toy service: it reports RUNNING after reportAfter
// (0 = never) and the first incarnation crashes at crashAt (0 = never).
func newRig(t *testing.T, reportAfter, crashAt, hint time.Duration) *rig {
	t.Helper()
	k := ntsim.NewKernel()
	log := eventlog.New()
	mgr := scm.New(k, log)
	incarnation := 0
	k.RegisterImage("toy.exe", func(p *ntsim.Process) uint32 {
		api := win32.New(p)
		incarnation++
		first := incarnation == 1
		elapsed := time.Duration(0)
		advance := func(until time.Duration) {
			if until > elapsed {
				api.Sleep(uint32((until - elapsed) / time.Millisecond))
				elapsed = until
			}
		}
		if first && crashAt > 0 && (reportAfter == 0 || crashAt <= reportAfter) {
			advance(crashAt)
			p.RaiseAccessViolation()
		}
		if reportAfter > 0 {
			advance(reportAfter)
			scm.ReportRunning(k, "toy")
		}
		if first && crashAt > 0 {
			advance(crashAt)
			p.RaiseAccessViolation()
		}
		for {
			api.Sleep(3_600_000)
		}
	})
	if err := mgr.CreateService(scm.Config{Name: "toy", Image: "toy.exe", WaitHint: hint}); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, mgr: mgr, log: log}
}

// monitor starts the resource monitor on the rig as a one-node cluster,
// the paper's single-node testbed.
func (r *rig) monitor(t *testing.T, params Params) {
	t.Helper()
	if _, err := StartCluster([]ClusterNode{{Kernel: r.k, Mgr: r.mgr, Log: r.log}}, "toy", params, nil); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) run(t *testing.T, d time.Duration) {
	t.Helper()
	r.k.RunFor(d)
	if pan := r.k.Panics(); len(pan) != 0 {
		t.Fatalf("panics: %v", pan)
	}
}

func TestBringsResourceOnline(t *testing.T) {
	r := newRig(t, 200*time.Millisecond, 0, 10*time.Second)
	r.monitor(t, DefaultParams())
	r.run(t, 10*time.Second)
	st, _, _ := r.mgr.QueryServiceStatus("toy")
	if st != scm.Running {
		t.Fatalf("state %v, want RUNNING", st)
	}
	if n := r.log.CountEvent(Source, EventResourceRestart); n != 0 {
		t.Fatalf("%d spurious restart events", n)
	}
}

func TestRestartsRunningDeath(t *testing.T) {
	// The service dies while RUNNING: the LooksAlive poll notices the
	// reaped service and the restart succeeds.
	r := newRig(t, 100*time.Millisecond, 3*time.Second, 10*time.Second)
	r.monitor(t, DefaultParams())
	r.run(t, 30*time.Second)
	st, _, _ := r.mgr.QueryServiceStatus("toy")
	if st != scm.Running {
		t.Fatalf("state %v, want RUNNING after restart", st)
	}
	if n := r.log.CountEvent(Source, EventResourceRestart); n != 1 {
		t.Fatalf("%d restart events, want 1", n)
	}
}

func TestGivesUpOnLongPendingLock(t *testing.T) {
	// Death before RUNNING with a 30s wait hint: the SCM database stays
	// locked past the monitor's online patience and attempt budget, so
	// the resource fails permanently (why MSCS loses to watchd3 on
	// services with long start hints).
	r := newRig(t, 2*time.Second, 500*time.Millisecond, 30*time.Second)
	r.monitor(t, DefaultParams())
	r.run(t, 90*time.Second)
	if n := r.log.CountEvent(Source, EventResourceFailed); n != 1 {
		t.Fatalf("%d resource-failed events, want 1", n)
	}
	st, _, _ := r.mgr.QueryServiceStatus("toy")
	if st == scm.Running {
		t.Fatal("service running; the resource was expected to fail")
	}
}

func TestRecoversShortPendingLock(t *testing.T) {
	// The same pre-RUNNING death with a 4s hint (IIS's profile): the
	// lock expires within the monitor's patience and attempt 2 restarts
	// the service.
	r := newRig(t, 2*time.Second, 500*time.Millisecond, 4*time.Second)
	r.monitor(t, DefaultParams())
	r.run(t, 60*time.Second)
	st, _, _ := r.mgr.QueryServiceStatus("toy")
	if st != scm.Running {
		t.Fatalf("state %v, want RUNNING", st)
	}
	if n := r.log.CountEvent(Source, EventResourceRestart); n != 1 {
		t.Fatalf("%d restart events, want 1", n)
	}
}

func TestRestartLogsGoToEventLog(t *testing.T) {
	// The DTS collector depends on restarts being visible in the NT
	// event log under the ClusSvc source (§3).
	r := newRig(t, 100*time.Millisecond, 2*time.Second, 10*time.Second)
	r.monitor(t, DefaultParams())
	r.run(t, 30*time.Second)
	recs := r.log.BySource(Source)
	if len(recs) == 0 {
		t.Fatal("no ClusSvc event-log records")
	}
	found := false
	for _, rec := range recs {
		if rec.EventID == EventResourceRestart {
			found = true
			if rec.Severity != eventlog.Warning {
				t.Errorf("restart severity %v", rec.Severity)
			}
		}
	}
	if !found {
		t.Fatal("no restart record in the event log")
	}
}

func TestDefaultParamsApplied(t *testing.T) {
	p := DefaultParams()
	if p.MaxAttempts != 2 || p.OnlineTimeout != 22*time.Second {
		t.Fatalf("unexpected defaults %+v", p)
	}
	// StartCluster with zero params must fall back to defaults (smoke).
	r := newRig(t, 100*time.Millisecond, 0, 10*time.Second)
	r.monitor(t, Params{})
	r.run(t, 5*time.Second)
	st, _, _ := r.mgr.QueryServiceStatus("toy")
	if st != scm.Running {
		t.Fatalf("state %v", st)
	}
}

// TestFailoverToStandbyNode exercises the cross-node failover the
// paper's single-node testbed could not: node 0's start stays blocked
// behind its SCM lock until the monitor's budget runs out, and the group
// then moves to node 1, whose monitor keeps restarting the service there.
func TestFailoverToStandbyNode(t *testing.T) {
	m := ntsim.NewMachine()
	nodes := make([]ClusterNode, 2)
	for i := range nodes {
		k := m.AddKernel()
		log := eventlog.New()
		mgr := scm.New(k, log)
		if i == 0 {
			// Dies before reporting RUNNING, 30s wait hint: the
			// configuration MSCS abandons.
			k.RegisterImage("toy.exe", func(p *ntsim.Process) uint32 {
				win32.New(p).Sleep(300)
				p.RaiseAccessViolation()
				return 0
			})
		} else {
			k.RegisterImage("toy.exe", func(p *ntsim.Process) uint32 {
				api := win32.New(p)
				api.Sleep(200)
				scm.ReportRunning(k, "toy")
				for {
					api.Sleep(3_600_000)
				}
			})
		}
		if err := mgr.CreateService(scm.Config{Name: "toy", Image: "toy.exe", WaitHint: 30 * time.Second}); err != nil {
			t.Fatal(err)
		}
		nodes[i] = ClusterNode{Kernel: k, Mgr: mgr, Log: log}
	}
	healthy := func(a, b int) bool { return true }
	if _, err := StartCluster(nodes, "toy", DefaultParams(), healthy); err != nil {
		t.Fatal(err)
	}
	run := func(d time.Duration) {
		t.Helper()
		m.RunFor(d)
		for _, n := range nodes {
			if pan := n.Kernel.Panics(); len(pan) != 0 {
				t.Fatalf("panics: %v", pan)
			}
		}
	}
	run(90 * time.Second)
	if n := nodes[0].Log.CountEvent(Source, EventResourceFailed); n != 1 {
		t.Fatalf("node 0 logged %d resource-failed events, want 1", n)
	}
	if n := nodes[0].Log.CountEvent(Source, EventGroupFailover); n != 1 {
		t.Fatalf("node 0 logged %d failover events, want 1", n)
	}
	if st, _, _ := nodes[1].Mgr.QueryServiceStatus("toy"); st != scm.Running {
		t.Fatalf("node 1 service %v, want RUNNING", st)
	}
	// The new owner keeps watching its service: kill it, expect one
	// restart in node 1's own event log.
	_, pid, _ := nodes[1].Mgr.QueryServiceStatus("toy")
	nodes[1].Kernel.Process(pid).Terminate(ntsim.ExitAccessViolation)
	run(30 * time.Second)
	if n := nodes[1].Log.CountEvent(Source, EventResourceRestart); n != 1 {
		t.Fatalf("node 1 logged %d restart events, want 1", n)
	}
	if st, _, _ := nodes[1].Mgr.QueryServiceStatus("toy"); st != scm.Running {
		t.Fatalf("node 1 service %v after death, want restarted RUNNING", st)
	}
}
