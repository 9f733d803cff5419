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
// quantum, gives the same observations and the same CtrSchedQuanta.
// Elision must engage (RunFor takes fewer steps) on a standalone kernel
// and on node 0 of a 2- and a 3-node machine: the ceiling, the attention
// flag, the ready ring and the clock are all the machine's.
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
		{"2-node machine", 2, true},
		{"3-node machine", 3, true},
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

// crossNodeRun boots build's workload on a fresh machine of the given
// number of nodes, each with its own recorder, and drives it as
// Runner.run does: step until done reports true or ten virtual seconds
// pass — under a machine ceiling when ceil, so elision may engage — then
// step the machine idle. It returns what the workload and the harness
// observed (build's notes, the instant the harness saw done, every
// process's exit), every node's CtrSchedQuanta, and the step count.
func crossNodeRun(t *testing.T, nodes int, ceil bool, build func(m *Machine, note func(p *Process, what string)) (done func() bool)) (obs, quanta string, steps int) {
	t.Helper()
	m := NewMachine()
	recs := make([]*telemetry.Recorder, nodes)
	for i := range recs {
		recs[i] = telemetry.NewRecorder(64)
		m.AddKernel().SetTelemetry(recs[i])
	}
	var log []string
	node := func(k *Kernel) int {
		for i, kk := range m.Kernels() {
			if kk == k {
				return i
			}
		}
		return -1
	}
	done := build(m, func(p *Process, what string) {
		log = append(log, fmt.Sprintf("%v node%d/%s %s", m.Now(), node(p.Kernel()), p.Image, what))
	})
	deadline := m.Now().Add(10 * time.Second)
	if ceil {
		m.SetSchedCeiling(deadline)
	}
	for !done() && m.Now().Before(deadline) && m.Step() {
		steps++
	}
	log = append(log, fmt.Sprintf("%v harness: done=%v", m.Now(), done()))
	for m.Now().Before(deadline) && m.Step() {
		steps++
	}
	m.ClearSchedCeiling()
	q := make([]string, nodes)
	for i, k := range m.Kernels() {
		checkNoPanics(t, k)
		for _, p := range k.Processes() {
			if !p.Terminated() {
				t.Fatalf("node%d/%s still live: the workload must finish before the deadline", i, p.Image)
			}
			log = append(log, fmt.Sprintf("node%d/%s exit=%d end=%v", i, p.Image, p.ExitCode(), p.EndTime()))
		}
		q[i] = fmt.Sprint(recs[i].Counter(telemetry.CtrSchedQuanta))
	}
	log = append(log, fmt.Sprintf("now=%v pending=%d", m.Now(), m.Clock().Pending()))
	return strings.Join(log, "\n"), strings.Join(q, " "), steps
}

// never is the done condition of a harness loop that only steps.
func never() bool { return false }

// TestElisionAcrossNodes: elision stays exact where another node's work
// must interrupt a process that runs alone on node 0. Each workload,
// stepped by the harness loop under a machine ceiling, gives the
// observations and per-node CtrSchedQuanta of plain stepping, and takes
// fewer steps (elision engaged).
func TestElisionAcrossNodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		build func(m *Machine, note func(p *Process, what string)) func() bool
	}{
		{
			// The write lands on the global ready ring, so the writer's
			// next quantum boundary must hand off to the reader.
			name:  "pipe write wakes a reader on another node",
			nodes: 2,
			build: func(m *Machine, note func(*Process, string)) func() bool {
				k0, k1 := m.Kernels()[0], m.Kernels()[1]
				const path = `\\.\pipe\elide`
				k1.RegisterImage("reader.exe", func(p *Process) uint32 {
					ps, errno := k1.CreatePipeServer(path)
					if errno != ErrSuccess {
						panic(errno)
					}
					if errno := ps.Listen(p); errno != ErrSuccess {
						panic(errno)
					}
					buf := make([]byte, 8)
					n, errno := ps.Read(p, buf)
					if errno != ErrSuccess {
						panic(errno)
					}
					note(p, "read "+string(buf[:n]))
					p.ChargeTime(25 * time.Millisecond)
					note(p, "done")
					return 0
				})
				k0.RegisterImage("writer.exe", func(p *Process) uint32 {
					pc, errno := k1.ConnectPipeClient(path)
					if errno != ErrSuccess {
						panic(errno)
					}
					p.ChargeTime(45 * time.Millisecond) // alone once the reader blocks in Read
					if _, errno := pc.Write([]byte("ping")); errno != ErrSuccess {
						panic(errno)
					}
					p.ChargeTime(60 * time.Millisecond)
					note(p, "done")
					return 0
				})
				mustSpawn(t, k1, "reader.exe", "")
				mustSpawn(t, k0, "writer.exe", "")
				return never
			},
		},
		{
			// Node 1's and node 2's sleepers fall due at 40 ms and 90 ms,
			// quantum boundaries of node 0's lone 150 ms burst: the due
			// event, not the ready ring, is what stops elision there.
			name:  "peer timer falls due on a lone runner's quantum boundary",
			nodes: 3,
			build: func(m *Machine, note func(*Process, string)) func() bool {
				for i, k := range m.Kernels()[1:] {
					d := time.Duration(40+50*i) * time.Millisecond
					k.RegisterImage("timer.exe", func(p *Process) uint32 {
						p.SleepFor(d)
						note(p, "woke")
						p.ChargeTime(15 * time.Millisecond)
						note(p, "done")
						return 0
					})
					mustSpawn(t, k, "timer.exe", "")
				}
				k0 := m.Kernels()[0]
				k0.RegisterImage("cpu.exe", func(p *Process) uint32 {
					p.ChargeTime(150 * time.Millisecond)
					note(p, "done")
					return 0
				})
				mustSpawn(t, k0, "cpu.exe", "")
				return never
			},
		},
		{
			// Node 1's process arms an event that, 55 ms in, raises the
			// flag the harness polls through node 1's RequestAttention,
			// as a network delivery or a scenario trigger changes a
			// node's state. The event fires in the Step that resumes
			// node 0's lone burst, so that burst's next boundary must
			// hand off for the harness to see the flag where plain
			// stepping does: the attention flag is the machine's, not
			// the running node's.
			name:  "harness polls a flag node 1 raises while node 0 runs alone",
			nodes: 2,
			build: func(m *Machine, note func(*Process, string)) func() bool {
				k0, k1 := m.Kernels()[0], m.Kernels()[1]
				raised := false
				k1.RegisterImage("svc.exe", func(p *Process) uint32 {
					k1.Clock().ScheduleAfter(55*time.Millisecond, func() {
						raised = true
						k1.RequestAttention()
					})
					p.SleepFor(100 * time.Millisecond)
					note(p, "woke")
					return 0
				})
				k0.RegisterImage("cpu.exe", func(p *Process) uint32 {
					p.ChargeTime(200 * time.Millisecond)
					note(p, "done")
					return 0
				})
				mustSpawn(t, k1, "svc.exe", "")
				mustSpawn(t, k0, "cpu.exe", "")
				return func() bool { return raised }
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantObs, wantQuanta, plainSteps := crossNodeRun(t, tc.nodes, false, tc.build)
			gotObs, gotQuanta, ceilSteps := crossNodeRun(t, tc.nodes, true, tc.build)
			if gotObs != wantObs {
				t.Fatalf("elided run diverged from plain stepping:\n plain:\n%s\n elided:\n%s", wantObs, gotObs)
			}
			if gotQuanta != wantQuanta {
				t.Fatalf("quanta per node: plain %s, elided %s", wantQuanta, gotQuanta)
			}
			if ceilSteps >= plainSteps {
				t.Fatalf("elided run took %d steps, plain stepping %d: elision never engaged", ceilSteps, plainSteps)
			}
		})
	}
}

// burstRun is crossNodeRun on a standalone machine that also returns how
// many process goroutines Step resumed.
func burstRun(t *testing.T, ceil bool, build func(m *Machine, note func(p *Process, what string)) (done func() bool)) (obs, quanta string, resumes int) {
	t.Helper()
	var m *Machine
	obs, quanta, _ = crossNodeRun(t, 1, ceil, func(mm *Machine, note func(*Process, string)) func() bool {
		m = mm
		return build(mm, note)
	})
	return obs, quanta, m.resumes
}

// burner returns an image that charges burst and notes when it is done.
func burner(burst time.Duration, note func(*Process, string)) EntryFunc {
	return func(p *Process) uint32 {
		p.ChargeTime(burst)
		note(p, "done")
		return 0
	}
}

// TestBurstContinuationMatchesPlainStepping: the burst continuation is
// exact. Under a ceiling, Step runs a preempted burst's middle quanta
// itself and resumes the process only for its last one; stepped that
// way, each workload gives the observations (exit codes and end times
// included) and CtrSchedQuanta of plain stepping, which resumes the
// process every quantum, with the goroutine resumes pinned for both.
func TestBurstContinuationMatchesPlainStepping(t *testing.T) {
	for _, tc := range []struct {
		name              string
		build             func(m *Machine, note func(*Process, string)) func() bool
		plainRes, ceilRes int
	}{
		{
			// The victim is parked mid-burst, in relinquish, when the
			// killer's Terminate marks it: Step must resume it so the
			// kill unwinds in its own goroutine at the next boundary
			// (80 ms), not run the rest of its burst first.
			name: "peer terminates a process parked mid-burst",
			build: func(m *Machine, note func(*Process, string)) func() bool {
				k := m.Kernels()[0]
				k.RegisterImage("victim.exe", burner(500*time.Millisecond, note))
				victim := mustSpawn(t, k, "victim.exe", "")
				k.RegisterImage("killer.exe", func(p *Process) uint32 {
					p.SleepFor(45 * time.Millisecond)
					note(p, "kill")
					victim.Terminate(7)
					p.ChargeTime(30 * time.Millisecond)
					note(p, "done")
					return 0
				})
				mustSpawn(t, k, "killer.exe", "")
				return never
			},
			plainRes: 12, ceilRes: 5,
		},
		{
			// 100 ms is ten quanta exactly: the continuation stops with
			// one quantum left, which the resumed goroutine charges.
			name: "burst an exact multiple of the quantum beside a peer burst",
			build: func(m *Machine, note func(*Process, string)) func() bool {
				k := m.Kernels()[0]
				k.RegisterImage("a.exe", burner(100*time.Millisecond, note))
				k.RegisterImage("b.exe", burner(70*time.Millisecond, note))
				mustSpawn(t, k, "a.exe", "")
				mustSpawn(t, k, "b.exe", "")
				return never
			},
			plainRes: 17, ceilRes: 4,
		},
		{
			// A 15 ms burst parks once with 5 ms left, which is its last
			// quantum: Step must resume it at once.
			name: "burst between one and two quanta beside a peer burst",
			build: func(m *Machine, note func(*Process, string)) func() bool {
				k := m.Kernels()[0]
				k.RegisterImage("a.exe", burner(15*time.Millisecond, note))
				k.RegisterImage("b.exe", burner(60*time.Millisecond, note))
				mustSpawn(t, k, "a.exe", "")
				mustSpawn(t, k, "b.exe", "")
				return never
			},
			plainRes: 8, ceilRes: 4,
		},
		{
			// The two hand the CPU back and forth every quantum, so
			// elision never applies until one is left alone. Under a
			// ceiling each goroutine is resumed only to start and for
			// its burst's last quantum, against once per quantum
			// without one.
			name: "two concurrent 1 s bursts",
			build: func(m *Machine, note func(*Process, string)) func() bool {
				k := m.Kernels()[0]
				k.RegisterImage("cpu.exe", burner(time.Second, note))
				mustSpawn(t, k, "cpu.exe", "")
				mustSpawn(t, k, "cpu.exe", "")
				return never
			},
			plainRes: 200, ceilRes: 4,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantObs, wantQuanta, plainRes := burstRun(t, false, tc.build)
			gotObs, gotQuanta, ceilRes := burstRun(t, true, tc.build)
			if gotObs != wantObs {
				t.Fatalf("continued run diverged from plain stepping:\n plain:\n%s\n continued:\n%s", wantObs, gotObs)
			}
			if gotQuanta != wantQuanta {
				t.Fatalf("quanta: plain %s, continued %s", wantQuanta, gotQuanta)
			}
			if plainRes != tc.plainRes || ceilRes != tc.ceilRes {
				t.Fatalf("goroutine resumes: plain %d, under a ceiling %d; want %d and %d",
					plainRes, ceilRes, tc.plainRes, tc.ceilRes)
			}
		})
	}
}
