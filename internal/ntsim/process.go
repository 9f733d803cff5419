package ntsim

import (
	"fmt"
	"sort"
	"time"

	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

type procState int

const (
	procReady procState = iota + 1
	procRunning
	procBlocked
	procTerminated
)

// resumeAction tells a parked process how to continue.
type resumeAction struct {
	kill     bool
	killCode uint32
}

// killSignal is the sentinel panic used to unwind a simulated process that
// was terminated (by TerminateProcess, ExitProcess, or an access violation).
type killSignal struct{ code uint32 }

// Process is a simulated NT process. Program code runs in a dedicated
// goroutine, but the kernel guarantees that at most one process goroutine is
// executing at any moment, so process code may touch kernel state freely.
type Process struct {
	k       *Kernel
	ID      PID
	Image   string
	CmdLine string
	Parent  PID

	state   procState
	queued  bool
	resume  chan resumeAction
	env     map[string]string
	lastErr Errno

	pendingKill     bool
	pendingKillCode uint32

	// waitResult/waitErrno communicate the outcome of a blocking wait
	// from the waker to the woken process.
	waitResult uint32
	waitErrno  Errno
	waitCancel func() // removes this process from wait lists on timeout/kill

	handles    map[Handle]*handleEntry
	nextHandle Handle
	addr       *addrSpace

	obj       *ProcessObject
	exitCode  uint32
	startTime vclock.Time
	endTime   vclock.Time

	// wakeFn is the cached timer callback for Yield/SleepFor, allocated
	// once per process instead of once per sleep (a client's retry
	// protocol alone schedules thousands).
	wakeFn func()

	// rawBuf is the reusable system-call parameter buffer handed out by
	// Raw, so hot-path API wrappers marshal into one per-process slice
	// instead of allocating a fresh one per call.
	rawBuf []uint64
}

// Raw copies vals into the process's reusable system-call parameter
// buffer and returns it. Exactly one system call is in flight per process
// at a time (every call funnels through Syscall before the next begins),
// so the buffer is free again by the time the caller's API function
// returns. The variadic argument slice never escapes, so callers pay no
// heap allocation once the buffer has grown to the widest call.
func (p *Process) Raw(vals ...uint64) []uint64 {
	p.rawBuf = append(p.rawBuf[:0], vals...)
	return p.rawBuf
}

// run is the goroutine trampoline hosting the program image.
func (p *Process) run(entry EntryFunc) {
	act := <-p.resume // wait for first schedule
	if act.kill {
		p.finalize(act.killCode)
		return
	}
	code := ExitFailure
	func() {
		defer func() {
			if r := recover(); r != nil {
				if ks, ok := r.(killSignal); ok {
					code = ks.code
					return
				}
				// A genuine bug in simulated program code:
				// record it and fold it into a crash so the
				// harness keeps running; tests assert that
				// Kernel.Panics() stays empty.
				p.k.panics = append(p.k.panics,
					fmt.Sprintf("pid %d (%s): %v", p.ID, p.Image, r))
				code = ExitAccessViolation
			}
		}()
		code = entry(p)
	}()
	p.finalize(code)
}

// finalize marks the process terminated, releases its handles, signals its
// process object, and returns the CPU to the kernel. Runs on the process
// goroutine as its final act.
func (p *Process) finalize(code uint32) {
	p.state = procTerminated
	p.exitCode = code
	p.endTime = p.k.clock.Now()
	p.k.liveProcs--
	p.k.tel.Emit(p.endTime, uint32(p.ID), telemetry.KindExit, p.Image, uint64(code), 0)
	p.k.tel.Add(telemetry.CtrExit, 1)
	// Close all handles (releases owned mutexes, pipe ends, etc.) in
	// creation order — handle values are monotone and never reused — so
	// the teardown sequence (and its telemetry trace) is deterministic;
	// bare map iteration here would leak randomized order into the trace.
	hs := make([]Handle, 0, len(p.handles))
	for h := range p.handles {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		p.closeHandleInternal(h)
	}
	p.obj.signalExit(p.k)
	p.k.mach.yield <- struct{}{}
}

// Kernel returns the hosting kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// State helpers ------------------------------------------------------------

// Terminated reports whether the process has exited.
func (p *Process) Terminated() bool { return p.state == procTerminated }

// ExitCode returns the exit code, or ExitStillActive while running.
func (p *Process) ExitCode() uint32 { return p.exitCode }

// StartTime returns the virtual time the process was spawned.
func (p *Process) StartTime() vclock.Time { return p.startTime }

// EndTime returns the virtual time the process exited (zero while running).
func (p *Process) EndTime() vclock.Time { return p.endTime }

// Object returns the waitable process object (signaled on exit).
func (p *Process) Object() *ProcessObject { return p.obj }

// LastError returns the per-process last-error value (GetLastError).
func (p *Process) LastError() Errno { return p.lastErr }

// SetLastError sets the per-process last-error value.
func (p *Process) SetLastError(e Errno) { p.lastErr = e }

// Env returns the value of a simulated environment variable.
func (p *Process) Env(key string) string { return p.env[key] }

// SetEnv sets a simulated environment variable.
func (p *Process) SetEnv(key, value string) { p.env[key] = value }

// Scheduling ---------------------------------------------------------------

// schedQuantum is the preemption quantum: a process consuming a long CPU
// burst relinquishes the CPU every quantum so due timers fire and woken
// processes interleave, like NT's preemptive timesharing.
const schedQuantum = 10 * time.Millisecond

// ChargeTime advances the virtual clock by d, modeling CPU or I/O time
// consumed by the running process. Bursts longer than the scheduling
// quantum are sliced, with the CPU relinquished between slices.
func (p *Process) ChargeTime(d time.Duration) {
	p.checkAlive()
	for d > schedQuantum {
		p.k.clock.Advance(schedQuantum)
		d -= schedQuantum
		p.relinquish()
	}
	p.k.clock.Advance(d)
}

// relinquish requeues the running process at the back of the ready queue
// and hands the CPU to the kernel (end-of-quantum preemption). When the
// process is alone with no due timer work and the harness has granted a
// scheduling ceiling, the handoff is elided: the slow path's next Step
// would only resume this same process, so the park/resume channel
// round-trip collapses to the quanta counter it would have produced.
func (p *Process) relinquish() {
	p.checkAlive()
	k := p.k
	if k.mach.canElide() {
		k.tel.Add(telemetry.CtrSchedQuanta, 1)
		return
	}
	k.makeReady(p)
	k.mach.yield <- struct{}{}
	act := <-p.resume
	if act.kill {
		panic(killSignal{act.killCode})
	}
	p.state = procRunning
}

// checkAlive panics with the kill sentinel if the process has been marked
// for termination. Called at every scheduling point.
func (p *Process) checkAlive() {
	if p.pendingKill {
		panic(killSignal{p.pendingKillCode})
	}
}

// block parks the process until the kernel resumes it, returning the wait
// result installed by the waker.
func (p *Process) block() (uint32, Errno) {
	p.checkAlive()
	p.state = procBlocked
	p.k.mach.yield <- struct{}{}
	act := <-p.resume
	if act.kill {
		if p.waitCancel != nil {
			p.waitCancel()
			p.waitCancel = nil
		}
		panic(killSignal{act.killCode})
	}
	p.state = procRunning
	p.waitCancel = nil
	return p.waitResult, p.waitErrno
}

// Yield relinquishes the CPU, letting other ready processes run at the same
// virtual instant (Sleep(0) semantics).
func (p *Process) Yield() {
	p.checkAlive()
	p.sleepUntil(p.k.clock.Now())
}

// SleepFor blocks the process for the given virtual duration.
func (p *Process) SleepFor(d time.Duration) {
	p.checkAlive()
	if d <= 0 {
		p.Yield()
		return
	}
	p.sleepUntil(p.k.clock.Now().Add(d))
}

// sleepUntil parks the process until wake. When the sleeper is alone and
// its wake strictly precedes every queued event and the scheduling
// ceiling, the park is elided: the slow path would fire the wake event
// and resume this same process with nothing running in between, so the
// fast path advances the clock straight to the wake instant and keeps
// going, charging the one scheduling quantum the resume would have cost.
func (p *Process) sleepUntil(wake vclock.Time) {
	k := p.k
	if k.mach.canElideSleep(wake) {
		k.clock.Advance(wake.Sub(k.clock.Now()))
		k.tel.Add(telemetry.CtrSchedQuanta, 1)
		return
	}
	if p.wakeFn == nil {
		p.wakeFn = func() { p.k.wake(p, WaitObject0, ErrSuccess) }
	}
	k.clock.ScheduleAt(wake, p.wakeFn)
	p.block()
}

// Exit terminates the calling process with the given exit code. It does not
// return.
func (p *Process) Exit(code uint32) {
	panic(killSignal{code})
}

// RaiseAccessViolation terminates the calling process as if it dereferenced
// an invalid pointer. It does not return.
func (p *Process) RaiseAccessViolation() {
	panic(killSignal{ExitAccessViolation})
}

// Terminate kills the process from outside (TerminateProcess semantics).
// Safe to call on any non-running process; the kernel unwinds it at its next
// scheduling point. Calling it on the running process is equivalent to Exit.
func (p *Process) Terminate(code uint32) {
	if p.state == procTerminated {
		return
	}
	if p.k.current == p {
		p.Exit(code)
	}
	p.pendingKill = true
	p.pendingKillCode = code
	// Wake it so the kill unwinds promptly regardless of what it was
	// waiting for.
	if p.state == procBlocked {
		p.k.wake(p, WaitFailed, ErrProcessAborted)
	} else {
		p.k.makeReady(p)
	}
}

// Syscall dispatch ----------------------------------------------------------

// Syscall charges the base system-call cost and runs the fault-injection
// interceptor over the raw parameter slice, which it may mutate in place.
// Every win32 API function funnels through here exactly once.
func (p *Process) Syscall(fn string, raw []uint64) {
	p.checkAlive()
	p.k.clock.Advance(p.k.costs.SyscallBase)
	p.k.dispatchSyscall(p, fn, raw)
}

// Addr returns the process's fake address space used for pointer-parameter
// modeling.
func (p *Process) Addr() *addrSpace { return p.addr }
