// Package apiharness is the catalog-wide conformance and fuzz harness: it
// walks every injectable entry of the KERNEL32 export catalog, replays the
// canonical probe program with each of the paper's three corruptions
// (zero / ones / flip) applied to each parameter position, and classifies
// every (function × parameter × fault) cell into the failure-mode taxonomy
// the paper's credibility rests on — error return, access violation, hang,
// silent success, abnormal exit, or not-reached.
//
// The sweep is deterministic: every cell runs on its own fresh ntsim
// kernel, so results are byte-identical across runs, seeds, and worker
// counts. The full matrix is pinned as a golden file
// (testdata/failure_matrix.golden); tier-1 tests diff live behaviour
// against that contract, which lets future refactors of ntsim and the
// win32 layer prove they did not silently change injection outcomes.
//
// Cross-cutting invariant oracles run after every cell: no panic escapes
// the dispatch boundary, the kernel drains to zero live processes and zero
// open handles, and — per sweep — the goroutine count returns to baseline
// and GetLastError is set on every deliberately failed call of the
// conformance program.
package apiharness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
	"ntdts/internal/workpool"
)

// Class is the failure-mode classification of one corrupted invocation.
type Class int

const (
	// ClassUncalled: the fault never fired — the probe does not dispatch
	// the function (catalog entry without a live implementation) or the
	// parameter index lies beyond the live arity.
	ClassUncalled Class = iota + 1
	// ClassSilent: the fault fired, the probe completed normally, and the
	// corrupted call left ERROR_SUCCESS — the corruption was absorbed
	// without any observable error (the paper's "no visible effect" and
	// its silent-corruption risk).
	ClassSilent
	// ClassError: the fault fired, the probe completed, and the corrupted
	// call left a nonzero last error — the Win32 error-return discipline.
	ClassError
	// ClassCrash: the probe died with STATUS_ACCESS_VIOLATION.
	ClassCrash
	// ClassHang: the probe was still running at the virtual-time deadline
	// and had to be killed (the paper's hang class).
	ClassHang
	// ClassExit: the probe exited early with some other nonzero code.
	ClassExit
)

// String names the class the way matrix lines spell it.
func (c Class) String() string {
	switch c {
	case ClassUncalled:
		return "uncalled"
	case ClassSilent:
		return "silent"
	case ClassError:
		return "error"
	case ClassCrash:
		return "crash"
	case ClassHang:
		return "hang"
	case ClassExit:
		return "exit"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// CellResult is one cell of the failure-mode matrix.
type CellResult struct {
	Function string
	Param    int
	Fault    inject.FaultType
	Class    Class
	// Errno is the last-error value the corrupted call left behind
	// (meaningful for ClassError).
	Errno ntsim.Errno
	// Exit is the probe's exit code (meaningful for ClassCrash/ClassExit).
	Exit uint32
}

// Key identifies the cell independent of its outcome.
func (c CellResult) Key() string {
	return fmt.Sprintf("%s p%d %s", c.Function, c.Param, c.Fault)
}

// Line renders the cell as one golden-matrix line.
func (c CellResult) Line() string {
	switch c.Class {
	case ClassError:
		return fmt.Sprintf("%s -> error %s", c.Key(), c.Errno.Error())
	case ClassCrash, ClassExit:
		return fmt.Sprintf("%s -> %s 0x%X", c.Key(), c.Class, c.Exit)
	default:
		return fmt.Sprintf("%s -> %s", c.Key(), c.Class)
	}
}

// Options configure one conformance sweep.
type Options struct {
	// Seed drives the sampling choice when Sample > 0. It never changes
	// any cell's outcome: the same seed always selects the same cells, and
	// a full sweep (Sample == 0) ignores it entirely.
	Seed int64
	// Sample, when positive, runs only that many live cells (chosen by
	// Seed) instead of the full matrix — the `go test -short` mode.
	Sample int
	// Parallelism is the worker count (0 = GOMAXPROCS, 1 = sequential).
	// The matrix is byte-identical at any setting.
	Parallelism int
	// Oracles are the per-cell invariants; nil selects DefaultOracles().
	Oracles []Oracle
	// Progress, when non-nil, receives (done, total) after every executed
	// cell, serialized, with done increasing strictly by one.
	Progress func(done, total int)
	// Telemetry enables per-cell collectors (traces, counters, the
	// cell.vtime histogram), merged in cell order into
	// SweepResult.Telemetry — byte-identical at any Parallelism.
	Telemetry telemetry.Options
}

// SweepResult is the outcome of one conformance sweep.
type SweepResult struct {
	// Cells holds one entry per matrix cell in catalog order. A full
	// sweep covers every injectable (function × param × fault) triple;
	// a sampled sweep holds only the selected live cells.
	Cells []CellResult
	// Baseline is the fault-free probe dispatch transcript ("fn/arity"
	// per line), freshly recorded by this sweep. It is independent of
	// Seed and Parallelism.
	Baseline string
	// LiveFunctions counts catalog entries the probe dispatches live.
	LiveFunctions int
	// InjectableEntries counts injectable catalog entries (paper: 551).
	InjectableEntries int
	// Sampled reports whether this was a partial (Sample > 0) sweep.
	Sampled bool
	// Telemetry holds one collector per executed cell, indexed like
	// Cells (nil for cells the probe never reaches), when the sweep ran
	// with Options.Telemetry enabled.
	Telemetry *telemetry.Set
}

// Matrix renders the result as the line-oriented failure-mode matrix, one
// line per cell, with a trailing newline.
func (s *SweepResult) Matrix() string {
	var b strings.Builder
	for _, c := range s.Cells {
		b.WriteString(c.Line())
		b.WriteByte('\n')
	}
	return b.String()
}

// ClassCounts histograms the cells by class name.
func (s *SweepResult) ClassCounts() map[string]int {
	counts := make(map[string]int)
	for _, c := range s.Cells {
		counts[c.Class.String()]++
	}
	return counts
}

// dispatchObserver captures the last-error value observed at the probe's
// first dispatch after the injector fired — i.e. the error state the
// corrupted call left behind.
type dispatchObserver struct {
	k        *ntsim.Kernel
	injector *inject.Injector

	captured bool
	errno    ntsim.Errno
}

func (o *dispatchObserver) BeforeSyscall(pid ntsim.PID, image, fn string, raw []uint64) {
	if image != win32.ProbeImage || o.captured || !o.injector.Injected() {
		return
	}
	// The injector fired on an earlier dispatch (it runs after this
	// observer within each dispatch), so the process's last error is the
	// corrupted call's legacy.
	if p := o.k.Process(pid); p != nil {
		o.errno = p.LastError()
		o.captured = true
	}
}

// chain multiplexes interceptors in order; the observer must run before
// the injector so it reads pre-corruption state of the current call.
type chain []ntsim.SyscallInterceptor

func (c chain) BeforeSyscall(pid ntsim.PID, image, fn string, raw []uint64) {
	for _, i := range c {
		i.BeforeSyscall(pid, image, fn, raw)
	}
}

// runCell executes one matrix cell on a fresh kernel and applies the
// per-cell oracles. With telemetry enabled the cell gets its own
// collector (returned alongside the result) recording the probe's
// events plus the cell's virtual-time cost.
func runCell(fn string, param int, fault inject.FaultType, oracles []Oracle, topts telemetry.Options) (CellResult, *telemetry.Recorder, error) {
	cell := CellResult{Function: fn, Param: param, Fault: fault}
	spec := inject.FaultSpec{Function: fn, Param: param, Invocation: 1, Type: fault}

	k := ntsim.NewKernel()
	rec := topts.NewRecorder()
	if rec != nil {
		k.SetTelemetry(rec)
	}
	injector := inject.New(k, inject.ByImage(win32.ProbeImage), &spec)
	obs := &dispatchObserver{k: k, injector: injector}
	k.SetInterceptor(chain{obs, injector})
	win32.SetupProbe(k)
	probe, err := win32.RunProbe(k)
	if err != nil {
		return cell, rec, fmt.Errorf("cell %s: %w", cell.Key(), err)
	}

	if !obs.captured && injector.Injected() {
		// The corrupted call was the probe's last dispatch; its legacy is
		// the process's final last-error value.
		obs.errno = probe.LastError()
	}
	cell.Exit = probe.ExitCode()
	switch {
	case !injector.Injected():
		cell.Class, cell.Exit = ClassUncalled, 0
	case cell.Exit == ntsim.ExitAccessViolation:
		cell.Class = ClassCrash
	case cell.Exit == ntsim.ExitTerminated:
		cell.Class = ClassHang
	case cell.Exit != 0:
		cell.Class = ClassExit
	case obs.errno != ntsim.ErrSuccess:
		cell.Class, cell.Errno = ClassError, obs.errno
	default:
		cell.Class = ClassSilent
	}

	for _, o := range oracles {
		if err := o.Check(&RunContext{Kernel: k, Probe: probe, Cell: cell}); err != nil {
			return cell, rec, fmt.Errorf("oracle %q violated at cell %s: %w", o.Name, cell.Key(), err)
		}
	}
	if rec != nil {
		rec.Observe(telemetry.HistCellVTime, time.Duration(k.Now()))
	}
	return cell, rec, nil
}

// recordBaseline runs the probe fault-free and returns its dispatch
// transcript, one "fn/arity" line per syscall event of the probe
// process. It is never memoized: every sweep re-proves the baseline, so
// two sweeps — whatever their seeds — comparing equal is a live
// determinism check, not a tautology.
func recordBaseline(oracles []Oracle) (string, error) {
	k := ntsim.NewKernel()
	rec := telemetry.NewRecorder(1 << 14) // room for the whole run
	k.SetTelemetry(rec)
	win32.SetupProbe(k)
	probe, err := win32.RunProbe(k)
	if err != nil {
		return "", err
	}
	if code := probe.ExitCode(); code != 0 {
		return "", fmt.Errorf("fault-free probe run exited 0x%X", code)
	}
	for _, o := range oracles {
		cell := CellResult{Class: ClassUncalled} // baseline has no fault
		if err := o.Check(&RunContext{Kernel: k, Probe: probe, Cell: cell}); err != nil {
			return "", fmt.Errorf("oracle %q violated on the baseline run: %w", o.Name, err)
		}
	}
	if n := rec.Dropped(); n > 0 {
		return "", fmt.Errorf("the baseline trace dropped %d events", n)
	}
	var b strings.Builder
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindSyscall && e.PID == uint32(probe.ID) {
			fmt.Fprintf(&b, "%s/%d\n", e.Name, e.A)
		}
	}
	return b.String(), nil
}

// cellJob pairs a pending cell with its position in the result slice.
type cellJob struct {
	index int
	fn    string
	param int
	fault inject.FaultType
}

// Sweep runs the conformance sweep described by opts.
func Sweep(opts Options) (*SweepResult, error) {
	oracles := opts.Oracles
	if oracles == nil {
		oracles = DefaultOracles()
	}
	goroutineBase := ntsim.GoroutineBaseline()

	baseline, err := recordBaseline(oracles)
	if err != nil {
		return nil, err
	}
	arity := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSuffix(baseline, "\n"), "\n") {
		i := strings.LastIndexByte(line, '/')
		if i < 0 {
			continue
		}
		n, err := strconv.Atoi(line[i+1:])
		if err != nil {
			return nil, fmt.Errorf("malformed baseline trace line %q", line)
		}
		if n > arity[line[:i]] {
			arity[line[:i]] = n
		}
	}

	res := &SweepResult{Baseline: baseline}

	// Lay out the full matrix in catalog order. Cells the probe cannot
	// reach are classified ClassUncalled without burning a run.
	var cells []CellResult
	var jobs []cellJob
	live := make(map[string]bool)
	for _, entry := range win32.Catalog() {
		if entry.Params == 0 {
			continue
		}
		res.InjectableEntries++
		liveArity := arity[entry.Name]
		if liveArity > 0 {
			live[entry.Name] = true
		}
		for param := 0; param < entry.Params; param++ {
			for _, fault := range inject.AllFaultTypes() {
				cell := CellResult{Function: entry.Name, Param: param, Fault: fault}
				if param < liveArity {
					jobs = append(jobs, cellJob{index: len(cells), fn: entry.Name, param: param, fault: fault})
				} else {
					cell.Class = ClassUncalled
				}
				cells = append(cells, cell)
			}
		}
	}
	res.LiveFunctions = len(live)

	if opts.Sample > 0 && opts.Sample < len(jobs) {
		// Seeded sampling: pick Sample live cells, keep catalog order.
		res.Sampled = true
		rng := rand.New(rand.NewSource(opts.Seed))
		perm := rng.Perm(len(jobs))[:opts.Sample]
		sort.Ints(perm)
		sampled := make([]cellJob, 0, opts.Sample)
		for _, j := range perm {
			job := jobs[j]
			job.index = len(sampled)
			sampled = append(sampled, job)
		}
		jobs, cells = sampled, make([]CellResult, len(sampled))
	}

	var recs []*telemetry.Recorder
	if opts.Telemetry.Enabled {
		recs = make([]*telemetry.Recorder, len(cells))
	}
	if err := executeCells(jobs, cells, recs, oracles, opts); err != nil {
		return nil, err
	}
	res.Cells = cells
	if recs != nil {
		res.Telemetry = &telemetry.Set{Runs: recs}
	}

	// Sweep-level oracle: all run kernels drained, so the goroutine count
	// must return to the pre-sweep baseline.
	if err := ntsim.AwaitGoroutineBaseline(goroutineBase, 5*time.Second); err != nil {
		return nil, fmt.Errorf("oracle %q violated after sweep: %w", "goroutine-baseline", err)
	}
	// Sweep-level oracle: the error-return discipline of the API surface.
	if err := CheckLastErrorConformance(); err != nil {
		return nil, err
	}
	return res, nil
}

// executeCells runs the job list on the shared worker pool (workpool.Run),
// writing each cell — and, when recs is non-nil, its telemetry collector
// — at its fixed index so the matrix and merged trace are identical at
// any worker count.
func executeCells(jobs []cellJob, cells []CellResult, recs []*telemetry.Recorder, oracles []Oracle, opts Options) error {
	var (
		progressMu sync.Mutex
		done       int
	)
	return workpool.Run(context.Background(), len(jobs), opts.Parallelism, func(i int) error {
		job := jobs[i]
		cell, rec, err := runCell(job.fn, job.param, job.fault, oracles, opts.Telemetry)
		if err != nil {
			return err
		}
		cells[job.index] = cell
		if recs != nil {
			recs[job.index] = rec
		}
		if opts.Progress != nil {
			progressMu.Lock()
			done++
			opts.Progress(done, len(jobs))
			progressMu.Unlock()
		}
		return nil
	})
}
