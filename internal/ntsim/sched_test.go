package ntsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

// TestPreemptionSlicesLongCPUBursts is the regression test for the
// scheduler starvation bug: a process charging a long CPU burst must not
// delay another process's timer wake-up beyond the scheduling quantum.
// (Watchd1's one-second poll was once delayed 5.5 seconds by the client's
// startup burst, silently breaking its handle-acquisition timing.)
func TestPreemptionSlicesLongCPUBursts(t *testing.T) {
	k := NewKernel()
	var wokeAt vclock.Time
	k.RegisterImage("burner.exe", func(p *Process) uint32 {
		p.ChargeTime(6 * time.Second)
		return 0
	})
	k.RegisterImage("sleeper.exe", func(p *Process) uint32 {
		p.SleepFor(time.Second)
		wokeAt = k.Now()
		return 0
	})
	mustSpawn(t, k, "burner.exe", "")
	mustSpawn(t, k, "sleeper.exe", "")
	runAll(t, k)
	if wokeAt < vclock.Time(time.Second) {
		t.Fatalf("sleeper woke early at %v", wokeAt)
	}
	if wokeAt > vclock.Time(time.Second+2*schedQuantum) {
		t.Fatalf("sleeper woke at %v; CPU burst starved the timer (quantum %v)", wokeAt, schedQuantum)
	}
}

// TestDueTimersFireBeforeReadyProcesses pins the Step ordering contract:
// events whose deadline has passed fire before any ready process resumes.
func TestDueTimersFireBeforeReadyProcesses(t *testing.T) {
	k := NewKernel()
	var order []string
	// A process that burns past a timer deadline in one slice-free charge
	// (below the quantum so no preemption happens), then yields.
	k.RegisterImage("a.exe", func(p *Process) uint32 {
		k.Clock().ScheduleAfter(5*time.Millisecond, func() { order = append(order, "timer") })
		p.ChargeTime(9 * time.Millisecond) // passes the 5ms deadline, single slice
		p.Yield()
		order = append(order, "proc")
		return 0
	})
	mustSpawn(t, k, "a.exe", "")
	runAll(t, k)
	if len(order) != 2 || order[0] != "timer" || order[1] != "proc" {
		t.Fatalf("order %v, want [timer proc]", order)
	}
}

// TestRoundRobinBetweenCPUBoundProcesses: two CPU-bound processes sharing
// the virtual CPU finish in bounded skew, not strictly sequentially.
func TestRoundRobinBetweenCPUBoundProcesses(t *testing.T) {
	k := NewKernel()
	var doneA, doneB vclock.Time
	k.RegisterImage("a.exe", func(p *Process) uint32 {
		p.ChargeTime(500 * time.Millisecond)
		doneA = k.Now()
		return 0
	})
	k.RegisterImage("b.exe", func(p *Process) uint32 {
		p.ChargeTime(500 * time.Millisecond)
		doneB = k.Now()
		return 0
	})
	mustSpawn(t, k, "a.exe", "")
	mustSpawn(t, k, "b.exe", "")
	runAll(t, k)
	total := vclock.Time(time.Second)
	if doneA < total-vclock.Time(2*schedQuantum) || doneB < total-vclock.Time(2*schedQuantum) {
		t.Fatalf("done at %v / %v; CPU-bound processes did not interleave (total %v)", doneA, doneB, total)
	}
	skew := doneA.Sub(doneB)
	if skew < 0 {
		skew = -skew
	}
	if skew > 2*schedQuantum {
		t.Fatalf("finish skew %v exceeds two quanta", skew)
	}
}

// TestKillDuringCPUBurst: terminating a process mid-burst unwinds it at
// the next quantum boundary.
func TestKillDuringCPUBurst(t *testing.T) {
	k := NewKernel()
	k.RegisterImage("burner.exe", func(p *Process) uint32 {
		p.ChargeTime(time.Hour)
		return 0
	})
	p := mustSpawn(t, k, "burner.exe", "")
	k.RunFor(100 * time.Millisecond)
	p.Terminate(ExitTerminated)
	k.RunFor(100 * time.Millisecond)
	if !p.Terminated() || p.ExitCode() != ExitTerminated {
		t.Fatalf("terminated=%v code=0x%X", p.Terminated(), p.ExitCode())
	}
	checkNoPanics(t, k)
}

// elisionRun boots the elision workload on node 0 of an n-node machine
// (n == 1 is a standalone NewKernel), drives it with drive, and returns
// what it observed, every node's CtrSchedQuanta, and drive's step count.
// The workload is a solo sleeper, then two CPU-bound processes and a
// timer; every other node hosts a sleeper of its own. It finishes in
// well under a virtual second.
func elisionRun(t *testing.T, nodes int, drive func(*Kernel) int) (obs, quanta string, steps int) {
	t.Helper()
	var k *Kernel
	if nodes == 1 {
		k = NewKernel()
	} else {
		m := NewMachine()
		for i := 0; i < nodes; i++ {
			m.AddKernel()
		}
		k = m.Kernels()[0]
	}
	var log []string
	note := func(p *Process, what string) {
		log = append(log, fmt.Sprintf("%v %s/%d %s", k.Now(), p.Image, p.ID, what))
	}
	sleeper := func(n int, d time.Duration) EntryFunc {
		return func(p *Process) uint32 {
			for i := 0; i < n; i++ {
				p.SleepFor(d)
				note(p, "woke")
			}
			return 0
		}
	}
	recs := make([]*telemetry.Recorder, nodes)
	for i, node := range k.mach.Kernels() {
		recs[i] = telemetry.NewRecorder(64)
		node.SetTelemetry(recs[i])
		if node != k {
			node.RegisterImage("peer.exe", sleeper(6, 45*time.Millisecond))
			mustSpawn(t, node, "peer.exe", "")
		}
	}
	k.RegisterImage("sleeper.exe", sleeper(4, 30*time.Millisecond))
	k.RegisterImage("cpu.exe", func(p *Process) uint32 {
		burst, err := time.ParseDuration(p.CmdLine)
		if err != nil {
			panic(err)
		}
		p.SleepFor(200 * time.Millisecond) // until the sleeper is done
		p.ChargeTime(burst)
		note(p, "done")
		return 0
	})
	mustSpawn(t, k, "sleeper.exe", "")
	mustSpawn(t, k, "cpu.exe", "75ms")
	mustSpawn(t, k, "cpu.exe", "135ms")
	// The 135ms burst runs alone from 345ms; the timer falls due on one
	// of its quantum boundaries, where elision must hand off.
	k.Clock().ScheduleAt(vclock.Time(375*time.Millisecond), func() {
		log = append(log, fmt.Sprintf("%v timer", k.Now()))
	})

	steps = drive(k)

	for _, node := range k.mach.Kernels() {
		checkNoPanics(t, node)
		for _, p := range node.Processes() {
			if !p.Terminated() {
				t.Fatalf("%s/%d still live: the workload must finish before the deadline", p.Image, p.ID)
			}
			log = append(log, fmt.Sprintf("%s/%d exit=%d end=%v", p.Image, p.ID, p.ExitCode(), p.EndTime()))
		}
	}
	log = append(log, fmt.Sprintf("now=%v pending=%d", k.Now(), k.Clock().Pending()))
	q := make([]string, nodes)
	for i, rec := range recs {
		q[i] = fmt.Sprint(rec.Counter(telemetry.CtrSchedQuanta))
	}
	return strings.Join(log, "\n"), strings.Join(q, " "), steps
}

// TestElisionMatchesPlainStepping: scheduler elision is exact. The same
// workload driven by k.RunFor, which sets a ceiling so elision may
// engage, and by a bare Step loop with no ceiling, which hands off every
// quantum, gives the same observations and the same CtrSchedQuanta. On a
// standalone kernel elision must engage (RunFor takes fewer steps); on
// node 0 of a 2-node machine it must stay off (as many steps).
func TestElisionMatchesPlainStepping(t *testing.T) {
	runFor := func(k *Kernel) int { return k.RunFor(10 * time.Second) }
	bare := func(k *Kernel) int {
		n := 0
		for k.Step() {
			n++
		}
		return n
	}
	for _, tc := range []struct {
		name  string
		nodes int
		elide bool
	}{
		{"standalone", 1, true},
		{"2-node machine", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantObs, wantQuanta, plainSteps := elisionRun(t, tc.nodes, bare)
			gotObs, gotQuanta, ceilSteps := elisionRun(t, tc.nodes, runFor)
			if gotObs != wantObs {
				t.Fatalf("RunFor diverged from plain stepping:\n plain:\n%s\n RunFor:\n%s", wantObs, gotObs)
			}
			if gotQuanta != wantQuanta {
				t.Fatalf("quanta per node: plain %s, RunFor %s", wantQuanta, gotQuanta)
			}
			if elided := ceilSteps < plainSteps; elided != tc.elide {
				t.Fatalf("RunFor took %d steps, plain stepping %d: elision engaged = %v, want %v",
					ceilSteps, plainSteps, elided, tc.elide)
			}
		})
	}
}
