package ntsim

import (
	"time"

	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

// Machine is the simulator's one scheduler. It advances its kernels — one
// for a standalone kernel (NewKernel), or the nodes of a simulated
// cluster — under one shared virtual clock. Exactly one process executes
// at any instant across the whole machine: every node's wakes land on a
// single global ready ring, and Step resumes them in strict FIFO order,
// so an N-node run is as deterministic as a single-kernel run. Per-node
// state (process tables, VFS, pipe namespaces, named objects, telemetry)
// stays fully isolated; only time and the CPU are shared. The machine
// also owns the scheduler-elision state (the ceiling and the attention
// flag, see SetSchedCeiling), so a cluster elides as a single host does.
type Machine struct {
	clock   *vclock.Clock
	kernels []*Kernel

	// attn is raised by kernel-side state changes that a harness Step
	// loop polls for (SCM status transitions on any node, through
	// Kernel.RequestAttention). While set, the scheduler fast path stops
	// eliding handoffs so the harness observes the change at exactly the
	// quantum boundary it would have without elision. Cleared at every
	// Step entry.
	attn bool

	// ceil bounds how far the scheduler fast path may run without
	// returning control to the harness. Elision and the burst
	// continuation are disabled entirely until a ceiling is set
	// (SetSchedCeiling or Run), so bare Step loops keep the exact
	// handoff-per-quantum behaviour.
	ceil    vclock.Time
	ceilSet bool

	// ready is a ring: entries [readyHead:len) are queued. Popping moves
	// the head index instead of re-slicing, so the backing array is
	// reused for the whole run rather than re-grown every quantum (the
	// single hottest allocation site in a campaign profile).
	ready     []*Process
	readyHead int

	// yield is signaled by the running process when it blocks,
	// terminates, or otherwise relinquishes the CPU. One process runs
	// machine-wide, so one channel serves every node.
	yield chan struct{}

	// resumes counts the process goroutines Step has resumed; only
	// tests read it.
	resumes int
}

// NewMachine returns an empty machine with a fresh shared clock.
func NewMachine() *Machine {
	return &Machine{clock: vclock.New(), yield: make(chan struct{})}
}

// Clock exposes the machine's shared virtual clock.
func (m *Machine) Clock() *vclock.Clock { return m.clock }

// Now returns the current shared virtual time.
func (m *Machine) Now() vclock.Time { return m.clock.Now() }

// Kernels returns the machine's nodes in attachment order.
func (m *Machine) Kernels() []*Kernel { return m.kernels }

// AddKernel attaches a fresh kernel — empty process table, default cost
// model — as the machine's next node. The kernel shares the machine
// clock and is driven by the machine scheduler (its own Step delegates
// here).
func (m *Machine) AddKernel() *Kernel {
	k := &Kernel{
		mach:   m,
		clock:  m.clock,
		procs:  make(map[PID]*Process),
		images: make(map[string]EntryFunc),
		vfs:    NewVFS(),
		pipes:  make(map[string][]*PipeServer),
		costs:  DefaultCosts(),
		tel:    telemetry.Nop{},
	}
	m.kernels = append(m.kernels, k)
	return k
}

// readyCount reports how many processes are queued machine-wide.
func (m *Machine) readyCount() int { return len(m.ready) - m.readyHead }

// popReady removes and returns the head of the global ready ring.
func (m *Machine) popReady() *Process {
	p := m.ready[m.readyHead]
	m.ready[m.readyHead] = nil
	m.readyHead++
	if m.readyHead == len(m.ready) {
		m.ready = m.ready[:0]
		m.readyHead = 0
	}
	return p
}

// Step executes one machine-wide scheduling quantum: first it fires every
// timer event that is already due on the shared clock (so a process that
// burned a long CPU slice cannot starve waiters whose deadlines passed
// meanwhile), then it resumes the next ready process — whichever node it
// lives on — until it yields, or, if none is ready, advances the clock to
// the next timer event. It reports false when the whole machine is idle
// (no ready processes and no pending events). Step is the only place a
// process is resumed. Under a scheduling ceiling, a process preempted
// mid-burst is resumed only for the burst's last quantum; Step runs the
// ones before it itself (runBurst).
func (m *Machine) Step() bool {
	m.attn = false
	for {
		next, ok := m.clock.NextAt()
		if !ok || next.After(m.clock.Now()) {
			break
		}
		m.clock.RunNext()
	}
	for m.readyCount() > 0 {
		p := m.popReady()
		p.queued = false
		if p.state != procReady {
			continue // stale queue entry (e.g., terminated meanwhile)
		}
		k := p.k
		p.state = procRunning
		k.current = p
		k.tel.Add(telemetry.CtrSchedQuanta, 1)
		if !m.ceilSet || p.pendingKill || !m.runBurst(p) {
			m.resumes++
			p.resume <- resumeAction{kill: p.pendingKill, killCode: p.pendingKillCode}
			<-m.yield
		}
		k.current = nil
		return true
	}
	return m.clock.RunNext()
}

// runBurst is the burst continuation. p is parked in relinquish (every
// ready process with more than a quantum of charge left is) and, once
// resumed, would spend those quanta only advancing the clock, so runBurst
// runs them here: ChargeTime's loop body, then relinquish's decision —
// count an elided handoff and go on, or requeue p and report true, so
// Step returns where the resumed process would have handed the CPU back.
// It reports false, and Step resumes p, once the burst's last quantum
// and then p's own code come next. It is exact because nothing else runs
// between those quanta (Advance is a pure add that fires no timer) and
// Step pops p after firing due timers, when the resumed goroutine would
// have run. Step never calls it for a pending kill, which must unwind in
// p's goroutine, nor without a ceiling, so fresh boot and bare Step
// loops stay the slow-path reference.
func (m *Machine) runBurst(p *Process) bool {
	for p.charge > schedQuantum {
		m.clock.Advance(schedQuantum)
		p.charge -= schedQuantum
		if !m.canElide() {
			p.k.makeReady(p)
			return true
		}
		p.k.tel.Add(telemetry.CtrSchedQuanta, 1)
	}
	return false
}

// SetSchedCeiling authorizes the scheduler fast path up to (but not
// including) ceil: while the running process is alone on the machine,
// with no due or intervening timer work and no attention request, its
// end-of-quantum handoffs and solo sleeps are elided — the clock
// advances without the park/resume channel round-trip — exactly until
// the first boundary at which a harness loop stepping with
// `for cond && m.Now().Before(ceil)` would regain control. Telemetry
// quanta counters are maintained as if every elided handoff had
// happened, so traces and archives stay byte-identical. Harness loops
// that poll other conditions must pair the ceiling with
// RequestAttention on those conditions' state changes. The ceiling also
// turns on the burst continuation (runBurst), which needs no solo
// process: a preempted burst's quanta run on the scheduler.
func (m *Machine) SetSchedCeiling(ceil vclock.Time) { m.ceil, m.ceilSet = ceil, true }

// ClearSchedCeiling disables the scheduler fast path and the burst
// continuation (the default).
func (m *Machine) ClearSchedCeiling() { m.ceilSet = false }

// canElide reports whether the running process may skip the end-of-quantum
// handoff: a ceiling is set and not yet reached, no other process is
// ready on any node, no timer is due at or before the current instant,
// and nothing has requested harness attention. Under those conditions
// the slow path's next Step would fire no timers and resume this same
// process — a pure channel round-trip the fast path replaces with one
// counter increment. Every condition is machine-wide: a peer node's
// process can only become runnable through the one ready ring (a
// cross-node wake) or through an event on the one clock (network
// delivery, a partition heal, a scenario trigger), so the argument
// holds on N nodes exactly as on one.
func (m *Machine) canElide() bool {
	if !m.ceilSet || m.attn || m.readyCount() != 0 {
		return false
	}
	now := m.clock.Now()
	if !now.Before(m.ceil) {
		return false
	}
	next, ok := m.clock.NextAt()
	return !ok || next.After(now)
}

// canElideSleep reports whether a solo sleeping process may advance the
// clock directly to wake instead of scheduling a wake event and parking:
// additionally to the canElide conditions, the wake must precede the
// ceiling (or the slow path would abandon the sleeper at the boundary)
// and strictly precede every queued event (an event at or before the wake
// instant would fire first and could change what the sleeper observes).
func (m *Machine) canElideSleep(wake vclock.Time) bool {
	if !m.ceilSet || m.attn || m.readyCount() != 0 || !wake.Before(m.ceil) {
		return false
	}
	next, ok := m.clock.NextAt()
	return !ok || next.After(wake)
}

// Run steps the machine until it is fully idle or the shared clock passes
// deadline, with the scheduling ceiling one tick past deadline (Run's
// continue-condition is now <= deadline). The previous ceiling, if any,
// is restored so nested harness loops keep their own bound. It returns
// the number of scheduling quanta executed.
func (m *Machine) Run(deadline vclock.Time) int {
	prevCeil, prevSet := m.ceil, m.ceilSet
	m.SetSchedCeiling(deadline + 1)
	defer func() { m.ceil, m.ceilSet = prevCeil, prevSet }()
	n := 0
	for {
		if m.clock.Now().After(deadline) {
			return n
		}
		// If nothing is ready and the next timer is beyond the
		// deadline, stop without firing it.
		if m.readyCount() == 0 {
			next, ok := m.clock.NextAt()
			if !ok || next.After(deadline) {
				return n
			}
		}
		if !m.Step() {
			return n
		}
		n++
	}
}

// RunFor is Run with a relative deadline.
func (m *Machine) RunFor(d time.Duration) int {
	return m.Run(m.clock.Now().Add(d))
}

// Idle reports whether no process is ready on any node and no timer
// events are pending on the shared clock.
func (m *Machine) Idle() bool {
	if m.readyCount() > 0 {
		return false
	}
	_, ok := m.clock.NextAt()
	return !ok
}

// KillAll terminates every live process on every node, in node order and
// PID order within a node, then steps until the terminations unwind. The
// fixed order keeps teardown — and therefore the telemetry trace —
// deterministic.
func (m *Machine) KillAll() {
	for _, k := range m.kernels {
		for _, p := range k.Processes() {
			if p.state != procTerminated {
				p.Terminate(ExitTerminated)
			}
		}
	}
	for m.readyCount() > 0 {
		m.Step()
	}
}
