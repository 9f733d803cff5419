package shard

// The worker half of the protocol: read the campaign header, then serve
// plan lines (chunks of global job indices) until the assignment stream
// ends. Each chunk runs on core's executor — its pool, the attempt
// policy the header records, and a ledger over the chunk whose journal
// is this result stream — so every commit streams back the moment it
// lands, as a run or quarantine record carrying its global job-list
// index. A done record closes the session. The coordinator owns
// ordering, so the worker never buffers or sorts.
//
// The fleet keeps the assignment stream open and feeds chunk after chunk
// to the same session, which amortizes the runner build and keeps the
// worker's streamed prefix final across chunks.

import (
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

// chunkStream is the journal of a chunk's ledger: it streams each
// commit as a record numbered by its global job index, counts the
// session's records, and runs the worker-failure drills the session's
// first plan arms. The drills compare against the session-total record
// count; the coordinator arms a worker's first plan only, so a
// respawned worker survives.
type chunkStream struct {
	w       *wire
	index   []int // chunk position -> global job index
	written *atomic.Int64
	drills  *journal.Plan
}

// WriteRun streams a run record. The ledger hands it strict payloads
// (core.MarshalRunRecord), which journal.AppendRun splices as they are.
func (s *chunkStream) WriteRun(i int, key string, attempts int, result, tel json.RawMessage) error {
	return s.emit(journal.AppendRun(nil, s.index[i], key, attempts, result, tel))
}

func (s *chunkStream) WriteQuarantine(i int, key string, fault json.RawMessage, reason, message, stack string, attempts int) error {
	line, err := journal.AppendQuarantine(nil, s.index[i], key, fault, reason, message, stack, attempts)
	if err != nil {
		return err
	}
	return s.emit(line)
}

// emit streams one encoded record: the slow drill delays every record
// (a deliberate straggler), and the kill and hang drills fire once the
// session has streamed their count.
func (s *chunkStream) emit(line []byte) error {
	if s.drills.ChaosSlowMS > 0 {
		time.Sleep(time.Duration(s.drills.ChaosSlowMS) * time.Millisecond)
	}
	if err := s.w.write(line); err != nil {
		return fmt.Errorf("result stream: %w", err)
	}
	n := int(s.written.Add(1))
	if s.drills.ChaosKillAfter > 0 && n >= s.drills.ChaosKillAfter {
		chaosSelfKill()
	}
	if s.drills.ChaosHangAfter > 0 && n >= s.drills.ChaosHangAfter {
		chaosHang()
	}
	return nil
}

// ServeWorker runs one worker session: header, then chunks until the
// assignment stream ends. This is the body of dts -shard-worker;
// InProcess runs it in a goroutine. The returned error is for the
// worker process's own exit status — the coordinator learns of failures
// from the error record (or the severed stream).
func ServeWorker(in io.Reader, out io.Writer) error {
	return serveWorker(in, out, RunnerFromHeader)
}

// serveWorker is ServeWorker with the runner built by runnerFor.
func serveWorker(in io.Reader, out io.Writer, runnerFor func(journal.Header) (*core.Runner, error)) error {
	st := journal.NewStream(in)
	hl, err := st.Next()
	if err != nil {
		return fmt.Errorf("shard worker: read assignment header: %w", err)
	}
	if hl.Kind != journal.KindHeader {
		return fmt.Errorf("shard worker: assignment starts with %q, want header", hl.Kind)
	}
	runner, err := runnerFor(*hl.Header)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	// The quarantine budget stays with the coordinator's ledger.
	policy := PolicyFromHeader(*hl.Header)

	w := &wire{w: out}
	var written atomic.Int64
	stopHeartbeat := func() {}
	defer func() { stopHeartbeat() }()
	var first *journal.Plan
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
		if first == nil {
			first = plan
			stopHeartbeat = heartbeat(w, &written, time.Duration(plan.HeartbeatNS))
		}
		stream := &chunkStream{w: w, index: plan.Index, written: &written, drills: first}
		if at, err := core.ExecuteChunk(runner, plan.Jobs, max(plan.Parallelism, 1), policy, stream); err != nil {
			// The error record must be the stream's final line.
			stopHeartbeat()
			w.writeLine(journal.Record{Kind: journal.KindError, Index: plan.Index[at], Message: err.Error()})
			return fmt.Errorf("shard worker: %w", err)
		}
	}
	// The done record must be the stream's final line.
	stopHeartbeat()
	if err := w.writeLine(journal.Record{Kind: journal.KindDone, Index: int(written.Load())}); err != nil {
		return fmt.Errorf("shard worker: done record: %w", err)
	}
	return nil
}

// heartbeat starts the liveness beacon, which the session keeps for its
// whole life, the idle gaps between chunks included: the coordinator
// tells "long run" from "wedged worker" by the gap between lines, and
// heartbeats bound that gap. The returned stop waits for the beacon to
// exit; calls after the first do nothing.
func heartbeat(w *wire, written *atomic.Int64, period time.Duration) func() {
	if period <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if w.writeLine(journal.Record{Kind: journal.KindHeartbeat, Index: int(written.Load())}) != nil {
					return // stream severed; nobody is listening
				}
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			done.Wait()
		})
	}
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
