// Package ntsim implements a deterministic simulation of the Windows NT
// process and object model: a cooperative single-CPU scheduler over virtual
// time, an object manager with per-process handle tables, a virtual
// filesystem, and named pipes. The win32 subpackage layers a typed
// KERNEL32-style API over this kernel; the inject package intercepts that
// API's dispatch path to corrupt call parameters.
//
// Exactly one simulated process executes at any instant. Every system call
// is a scheduling point with a virtual-time cost, which makes fault-injection
// campaigns exactly reproducible: the same fault specification always yields
// the same outcome.
package ntsim

import (
	"time"

	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

// PID identifies a simulated process.
type PID uint32

// EntryFunc is the entry point of a simulated program image. It receives the
// hosting process and returns the process exit code.
type EntryFunc func(p *Process) uint32

// SyscallInterceptor observes and may mutate system-call parameters before
// dispatch. The fault injector implements this interface.
type SyscallInterceptor interface {
	// BeforeSyscall is called with the raw parameter values of a system
	// call made by process pid. The implementation may mutate raw in
	// place. It is invoked after parameter marshaling and before any
	// validation, exactly where a DLL-interposition injector sits.
	BeforeSyscall(pid PID, procName string, fn string, raw []uint64)
}

// Kernel is the simulated NT kernel: process table, object manager,
// filesystem and pipe namespace, scheduled by its Machine. Create one per
// experiment run.
type Kernel struct {
	clock  *vclock.Clock
	procs  map[PID]*Process
	images map[string]EntryFunc

	// mach is the Machine this kernel is a node of: clock is the
	// machine's clock, ready processes queue on the machine's ring, and
	// Step, Run and Idle delegate to the machine scheduler. A standalone
	// kernel is the only node of its own machine.
	mach *Machine

	nextPID PID
	current *Process

	vfs   *VFS
	pipes map[string][]*PipeServer // pipe name -> listening instances
	named map[string]any           // named kernel objects
	slots map[string]*Mailslot     // mailslot namespace

	interceptor SyscallInterceptor
	costs       CostModel

	// tel receives kernel telemetry (syscall dispatch, scheduler quanta,
	// handle and process lifecycle). Defaults to the zero-allocation
	// telemetry.Nop; one Recorder per kernel keeps runs contention-free.
	tel telemetry.Collector

	// panics collects unexpected (non-kernel) panics raised by simulated
	// program code; tests assert this stays empty.
	panics []string

	// liveProcs counts processes that have started but not yet finished.
	liveProcs int
}

// NewKernel returns a kernel with an empty process table, a fresh virtual
// clock, and the default cost model: the only node of a new Machine.
func NewKernel() *Kernel {
	return NewMachine().AddKernel()
}

// Clock exposes the kernel's virtual clock.
func (k *Kernel) Clock() *vclock.Clock { return k.clock }

// Now returns the current virtual time.
func (k *Kernel) Now() vclock.Time { return k.clock.Now() }

// VFS exposes the kernel's virtual filesystem (for test setup and the DTS
// data collector, which reads the watchd log file).
func (k *Kernel) VFS() *VFS { return k.vfs }

// SetInterceptor installs the system-call interceptor (the fault injector).
func (k *Kernel) SetInterceptor(i SyscallInterceptor) { k.interceptor = i }

// SetTelemetry installs the telemetry collector. Install it before any
// process is spawned (and before inject.New, which emits the arming
// event through it) so the whole run is observed. A nil collector
// restores the zero-allocation disabled path.
func (k *Kernel) SetTelemetry(c telemetry.Collector) {
	if c == nil {
		c = telemetry.Nop{}
	}
	k.tel = c
}

// Telemetry returns the active collector (telemetry.Nop when disabled).
func (k *Kernel) Telemetry() telemetry.Collector { return k.tel }

// SetCosts replaces the virtual-time cost model.
func (k *Kernel) SetCosts(c CostModel) { k.costs = c }

// Costs returns the active cost model.
func (k *Kernel) Costs() CostModel { return k.costs }

// RegisterImage installs a program image under the given name, making it
// launchable via Spawn (and, through the win32 layer, CreateProcessA).
func (k *Kernel) RegisterImage(name string, entry EntryFunc) {
	if entry == nil {
		panic("ntsim: RegisterImage with nil entry")
	}
	k.images[name] = entry
}

// LookupImage reports whether an image is registered.
func (k *Kernel) LookupImage(name string) (EntryFunc, bool) {
	e, ok := k.images[name]
	return e, ok
}

// Panics returns descriptions of unexpected panics raised by simulated
// program code. A healthy simulation returns an empty slice.
func (k *Kernel) Panics() []string {
	out := make([]string, len(k.panics))
	copy(out, k.panics)
	return out
}

// Process returns the process with the given PID, or nil if it never existed.
func (k *Kernel) Process(pid PID) *Process { return k.procs[pid] }

// Processes returns every process the kernel has ever created — live or
// terminated — in PID order. The process table never forgets a process,
// so this is the complete spawn history of the run.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for pid := PID(1); pid <= k.nextPID; pid++ {
		if p := k.procs[pid]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Spawn creates a process running the named image and schedules it. The
// parent may be 0 for top-level processes. Spawn may be called from outside
// the simulation (harness) or from within a running process (CreateProcess).
func (k *Kernel) Spawn(image, cmdLine string, parent PID) (*Process, error) {
	entry, ok := k.images[image]
	if !ok {
		return nil, ErrFileNotFound
	}
	k.nextPID++
	p := &Process{
		k:         k,
		ID:        k.nextPID,
		Image:     image,
		CmdLine:   cmdLine,
		Parent:    parent,
		state:     procReady,
		resume:    make(chan resumeAction),
		env:       make(map[string]string),
		handles:   make(map[Handle]*handleEntry),
		addr:      newAddrSpace(),
		obj:       newProcessObject(),
		exitCode:  ExitStillActive,
		startTime: k.clock.Now(),
	}
	k.procs[p.ID] = p
	k.liveProcs++
	k.tel.Emit(k.clock.Now(), uint32(p.ID), telemetry.KindSpawn, image, uint64(parent), 0)
	k.tel.Add(telemetry.CtrSpawn, 1)
	go p.run(entry)
	k.makeReady(p)
	return p, nil
}

// makeReady appends p to the machine's ready ring if it is not already
// queued, so one scheduler interleaves every node's processes in wake
// order.
func (k *Kernel) makeReady(p *Process) {
	if p.state == procTerminated {
		return
	}
	if p.state != procReady {
		p.state = procReady
	}
	if p.queued {
		return
	}
	p.queued = true
	k.mach.ready = append(k.mach.ready, p)
}

// RequestAttention asks the scheduler to return control to the harness at
// the next quantum boundary. Kernel-adjacent services (the SCM) call it
// when they change state a harness Step loop polls for, so the scheduler
// fast path never coalesces quanta across an observation the slow path
// would have made. It raises the machine's one flag, whichever node's
// process runs next; the flag clears at the next Step entry.
func (k *Kernel) RequestAttention() { k.mach.attn = true }

// wake transitions a blocked process to ready with the given wait result.
// It queues on the process's own kernel: pipe wakes may originate from a
// peer kernel in a cluster machine (the writer's end lives on another
// node), and the sleeper must run on its home scheduler.
func (k *Kernel) wake(p *Process, result uint32, errno Errno) {
	if p.state != procBlocked {
		return
	}
	p.waitResult = result
	p.waitErrno = errno
	p.k.makeReady(p)
}

// Step executes one scheduling quantum of the kernel's machine (see
// Machine.Step). It reports false when the machine is fully idle.
func (k *Kernel) Step() bool { return k.mach.Step() }

// Run runs the kernel's machine until it is fully idle or the virtual
// clock passes deadline (see Machine.Run).
func (k *Kernel) Run(deadline vclock.Time) int { return k.mach.Run(deadline) }

// RunFor is Run with a relative deadline.
func (k *Kernel) RunFor(d time.Duration) int {
	return k.Run(k.clock.Now().Add(d))
}

// Idle reports whether no process is ready on the kernel's machine and no
// timer events are pending.
func (k *Kernel) Idle() bool { return k.mach.Idle() }

// LiveProcesses reports the number of processes that have started and not
// yet terminated.
func (k *Kernel) LiveProcesses() int { return k.liveProcs }

// KillAll terminates every live process of this kernel (used between
// fault-injection runs to tear the workload down, mirroring DTS "workload
// termination"), then steps the machine until the terminations unwind.
// Termination runs in PID order — not process-map order — so the teardown
// sequence, and therefore the telemetry trace, is deterministic.
func (k *Kernel) KillAll() {
	for _, p := range k.Processes() {
		if p.state != procTerminated {
			p.Terminate(ExitTerminated)
		}
	}
	for k.mach.readyCount() > 0 {
		k.mach.Step()
	}
}

// dispatchSyscall runs the interceptor over the raw parameters of a call.
// The win32 layer calls this once per API function invocation. The
// telemetry event is emitted before the interceptor runs, so the trace
// records every dispatch that the injector could corrupt.
func (k *Kernel) dispatchSyscall(p *Process, fn string, raw []uint64) {
	k.tel.Emit(k.clock.Now(), uint32(p.ID), telemetry.KindSyscall, fn, uint64(len(raw)), 0)
	k.tel.Add(telemetry.CtrSyscalls, 1)
	if k.interceptor != nil {
		k.interceptor.BeforeSyscall(p.ID, p.Image, fn, raw)
	}
}
