package shard

// The worker half of the protocol: read the campaign header, then serve
// plan lines (chunks of global job indices) until the assignment stream
// ends. Each chunk's jobs execute on a local pool and every result
// streams back as a journal run record the moment it completes; a done
// record closes the session. The coordinator owns ordering — records
// carry their global job-list index — so the worker never buffers or
// sorts.
//
// The fleet keeps the assignment stream open and feeds chunk after chunk
// to the same session, which amortizes the runner build and keeps the
// worker's streamed prefix final across chunks.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/journal"
	"ntdts/internal/workpool"
)

// wire serializes journal-format lines onto a stream: one encode, one
// Write per line, so a killed writer tears at most the final line —
// the same invariant the journal file format rests on.
type wire struct {
	mu sync.Mutex
	w  io.Writer
}

func (w *wire) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.write(append(data, '\n'))
}

// write emits one encoded, newline-terminated line in one Write call.
func (w *wire) write(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.w.Write(line)
	return err
}

// chaosThresholds are the worker-failure drills a plan can arm. The
// counters compare against the session-total record count, and once set
// they stick for the session — the coordinator arms them on a worker's
// first plan only, so a respawned worker survives.
type chaosThresholds struct {
	killAfter int           // SIGKILL self after N records
	hangAfter int           // wedge (heartbeats keep flowing) after N records
	slow      time.Duration // sleep before every run — a deliberate straggler
}

func (c *chaosThresholds) arm(plan *journal.Plan) {
	if plan.ChaosKillAfter > 0 {
		c.killAfter = plan.ChaosKillAfter
	}
	if plan.ChaosHangAfter > 0 {
		c.hangAfter = plan.ChaosHangAfter
	}
	if plan.ChaosSlowMS > 0 {
		c.slow = time.Duration(plan.ChaosSlowMS) * time.Millisecond
	}
}

// ServeWorker runs one worker session: header, then chunks until the
// assignment stream ends. This is the body of dts -shard-worker;
// InProcess runs it in a goroutine. The returned error is for the
// worker process's own exit status — the coordinator learns of failures
// from the error record (or the severed stream).
func ServeWorker(in io.Reader, out io.Writer) error {
	st := journal.NewStream(in)
	hl, err := st.Next()
	if err != nil {
		return fmt.Errorf("shard worker: read assignment header: %w", err)
	}
	if hl.Kind != journal.KindHeader {
		return fmt.Errorf("shard worker: assignment starts with %q, want header", hl.Kind)
	}
	runner, err := RunnerFromHeader(*hl.Header)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}

	w := &wire{w: out}
	var written atomic.Int64

	// Liveness beacon: the coordinator tells "long run" from "wedged
	// worker" by the gap between lines, and heartbeats bound that gap.
	// Started on the first plan (which carries the period) and kept for
	// the whole session, including the idle gaps between chunks.
	stopHeartbeat := func() {}
	heartbeatRunning := false
	startHeartbeat := func(period time.Duration) {
		if heartbeatRunning || period <= 0 {
			return
		}
		heartbeatRunning = true
		hbStop := make(chan struct{})
		var hbDone sync.WaitGroup
		hbDone.Add(1)
		go func() {
			defer hbDone.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if w.writeLine(journal.Record{Kind: journal.KindHeartbeat, Index: int(written.Load())}) != nil {
						return // stream severed; nobody is listening
					}
				case <-hbStop:
					return
				}
			}
		}()
		var once sync.Once
		stopHeartbeat = func() {
			once.Do(func() {
				close(hbStop)
				hbDone.Wait()
			})
		}
	}
	defer func() { stopHeartbeat() }()

	var chaos chaosThresholds
	for {
		pl, err := st.Next()
		if err == io.EOF {
			break // assignment stream closed: the session is over
		}
		if errors.Is(err, journal.ErrTorn) {
			return fmt.Errorf("shard worker: assignment stream torn mid-plan")
		}
		if err != nil {
			return fmt.Errorf("shard worker: read plan: %w", err)
		}
		if pl.Kind != journal.KindPlan {
			return fmt.Errorf("shard worker: assignment line is %q, want plan", pl.Kind)
		}
		plan := pl.Plan
		if len(plan.Index) != len(plan.Jobs) {
			return fmt.Errorf("shard worker: %d jobs but %d indices", len(plan.Jobs), len(plan.Index))
		}
		startHeartbeat(time.Duration(plan.HeartbeatNS))
		chaos.arm(plan)
		if failure := runChunk(runner, plan, w, &written, chaos); failure != nil {
			// The error record must be the stream's final line.
			stopHeartbeat()
			w.writeLine(journal.Record{Kind: journal.KindError, Index: failure.global, Message: failure.message})
			return fmt.Errorf("shard worker: %s", failure.message)
		}
	}
	// The done record must be the stream's final line.
	stopHeartbeat()
	if err := w.writeLine(journal.Record{Kind: journal.KindDone, Index: int(written.Load())}); err != nil {
		return fmt.Errorf("shard worker: done record: %w", err)
	}
	return nil
}

// runFailure is a chunk's lowest-indexed run error, tagged with the
// global job index its error record carries.
type runFailure struct {
	global  int
	message string
}

func (f *runFailure) Error() string { return f.message }

// runChunk executes one plan's jobs on the shared worker pool, streaming
// a run record per completion. A non-nil return is fatal to the session.
// Chunk indices ascend, so the pool's lowest local failure is also the
// lowest global one.
func runChunk(runner *core.Runner, plan *journal.Plan, w *wire, written *atomic.Int64, chaos chaosThresholds) *runFailure {
	jobs := make([]core.PlanJob, len(plan.Jobs))
	for i, key := range plan.Jobs {
		var err error
		if jobs[i], err = core.ParseJobKey(key); err != nil {
			return &runFailure{global: plan.Index[i], message: fmt.Sprintf("plan job %d: %v", i, err)}
		}
	}
	err := workpool.Run(context.Background(), len(jobs), max(plan.Parallelism, 1), func() func(int) error {
		rnr := runner.Clone()
		return func(i int) error {
			job := jobs[i]
			global := plan.Index[i]
			spec := job.Spec
			if chaos.slow > 0 {
				time.Sleep(chaos.slow)
			}
			res, err := rnr.Run(&spec)
			if res, err = core.FinishJob(job, res, err); err != nil {
				return &runFailure{global: global, message: err.Error()}
			}
			resultRaw, telRaw, err := core.MarshalRunRecord(res)
			if err != nil {
				return &runFailure{global: global, message: err.Error()}
			}
			line, err := journal.AppendRun(nil, global, plan.Jobs[i], 0, resultRaw, telRaw)
			if err == nil {
				err = w.write(line)
			}
			if err != nil {
				return &runFailure{global: global, message: fmt.Sprintf("result stream: %v", err)}
			}
			n := int(written.Add(1))
			if chaos.killAfter > 0 && n >= chaos.killAfter {
				chaosSelfKill()
			}
			if chaos.hangAfter > 0 && n >= chaos.hangAfter {
				chaosHang()
			}
			return nil
		}
	})
	if err != nil {
		return err.(*runFailure) // the body returns no other error type
	}
	return nil
}

// chaosSelfKill terminates the worker process the hard way — no flush,
// no handler — so the coordinator's failure drill sees a real SIGKILL,
// exactly like the CI shard job's random kill. Only a plan with
// ChaosKillAfter set reaches here, and the coordinator only sets it on
// real-process spawns under -chaos.
func chaosSelfKill() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill()
	}
	select {} // never proceed past the kill
}

// chaosHang wedges the run loop forever while the heartbeat beacon
// keeps flowing — the failure the stall deadline cannot see and the
// progress deadline exists for. The parked goroutine burns no CPU; the
// coordinator SIGKILLs (or severs) the worker once the deadline fires.
func chaosHang() {
	select {}
}
