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
// stays fully isolated; only time and the CPU are shared.
//
// Only a one-node machine uses the scheduler-elision fast path (see
// Kernel.canElide).
type Machine struct {
	clock   *vclock.Clock
	kernels []*Kernel

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
// process is resumed.
func (m *Machine) Step() bool {
	for _, k := range m.kernels {
		k.attn = false
	}
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
		p.resume <- resumeAction{kill: p.pendingKill, killCode: p.pendingKillCode}
		<-m.yield
		k.current = nil
		return true
	}
	return m.clock.RunNext()
}

// Run steps the machine until it is fully idle or the shared clock passes
// deadline. It returns the number of scheduling quanta executed.
func (m *Machine) Run(deadline vclock.Time) int {
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
