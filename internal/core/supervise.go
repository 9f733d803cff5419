package core

// Campaign supervisor: the resilience layer between the worker pool and
// the per-run lifecycle. The paper's DTS ran thousands of runs
// unattended; at the ROADMAP's million-run scale a single hung or
// panicking run, or a process killed at run 40k, must not cost the
// campaign. The supervisor wraps every run with a wall-clock watchdog
// (virtual time already bounds simulated hangs — this catches live bugs
// in the harness/sim itself), panic capture that quarantines the
// offending FaultSpec with its stack, and bounded retry-with-backoff for
// indeterminate attempts. The journal that makes an interrupted campaign
// resumable with byte-identical output, the quarantine list and its
// budget belong to the campaign's Ledger (ledger.go).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
)

// Reserved chaos function names, recognized only when
// SupervisorOptions.Chaos is set: fault specs naming them exercise the
// supervisor's failure paths deterministically (the chaos self-test and
// the CI kill/resume smoke job use them). They are not catalog
// functions, so a chaos spec that survives its chaos hook runs as an
// ordinary never-activated fault.
const (
	// ChaosPanicFunction panics on every attempt — exercises quarantine.
	ChaosPanicFunction = "DTSChaosPanic"
	// ChaosHangFunction blocks forever — exercises the wall watchdog.
	ChaosHangFunction = "DTSChaosHang"
	// ChaosFlakyFunction panics on the first attempt of each campaign and
	// completes normally from the second — exercises the retry path while
	// staying deterministic across campaigns.
	ChaosFlakyFunction = "DTSChaosFlaky"
)

// DefaultMaxAttempts is the total attempt budget per run (1 initial + 2
// retries) when SupervisorOptions.MaxAttempts is zero.
const DefaultMaxAttempts = 3

// defaultBackoff is the first retry delay; it doubles per retry.
const defaultBackoff = 5 * time.Millisecond

// ErrInterrupted is the stop cause recorded when the campaign is asked
// to stop from outside (SIGINT/SIGTERM in cmd/dts). The campaign
// returns it with whatever partial results the workers finished.
var ErrInterrupted = errors.New("campaign interrupted")

// QuarantineBudgetError is the stop cause when quarantines exceed
// SupervisorOptions.MaxQuarantined: the campaign degrades gracefully to
// a partial-results report instead of burning the remaining sweep.
type QuarantineBudgetError struct {
	Quarantined int
	Budget      int
}

func (e *QuarantineBudgetError) Error() string {
	return fmt.Sprintf("quarantine budget reached: %d runs quarantined (budget %d)", e.Quarantined, e.Budget)
}

// SupervisorOptions tune the resilience policy.
type SupervisorOptions struct {
	// WallDeadline bounds each attempt in wall-clock time (0 = no
	// watchdog). An attempt that exceeds it is abandoned — its goroutine
	// leaks by design, since Go cannot kill it — and retried.
	WallDeadline time.Duration
	// MaxAttempts is the total attempt budget per run (0 =
	// DefaultMaxAttempts). The run is quarantined when it is exhausted.
	MaxAttempts int
	// Backoff is the delay before the first retry, doubling per retry
	// (0 = defaultBackoff).
	Backoff time.Duration
	// MaxQuarantined is the campaign's failure budget: reaching this many
	// quarantined runs stops the campaign with QuarantineBudgetError
	// (so 1 stops on the first quarantine). Zero or negative: unlimited.
	MaxQuarantined int
	// Chaos enables the reserved DTSChaos* function hooks.
	Chaos bool
}

// QuarantineEntry records one run the supervisor gave up on. Stack is
// excluded from JSON: goroutine IDs and addresses are nondeterministic,
// and the results archive must stay byte-identical across runs — the
// stack lives in the journal and the human-readable quarantine report.
type QuarantineEntry struct {
	Index    int              `json:"index"`
	Fault    inject.FaultSpec `json:"fault"`
	Key      string           `json:"key"`
	Reason   string           `json:"reason"` // "panic" | "hang" | "error"
	Message  string           `json:"message"`
	Attempts int              `json:"attempts"`
	Stack    string           `json:"-"`
}

// Quarantine reasons and their telemetry codes.
const (
	ReasonPanic = "panic"
	ReasonHang  = "hang"
	ReasonError = "error"
)

func reasonCode(reason string) uint64 {
	switch reason {
	case ReasonPanic:
		return 1
	case ReasonHang:
		return 2
	default:
		return 3
	}
}

// Supervisor is the per-run attempt policy of one campaign: the
// wall-clock watchdog, retries with backoff, the chaos hooks and the
// quarantine placeholder for a run whose attempts are spent. What a run
// commits — its result or its quarantine, and the stop the quarantine
// budget latches — goes through the campaign's Ledger. Safe for
// concurrent use by the worker pool.
type Supervisor struct {
	opts SupervisorOptions
}

// NewSupervisor builds a supervisor with defaults filled in.
func NewSupervisor(opts SupervisorOptions) *Supervisor {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.Backoff <= 0 {
		opts.Backoff = defaultBackoff
	}
	return &Supervisor{opts: opts}
}

// attemptFailure describes one abandoned attempt.
type attemptFailure struct {
	reason  string
	message string
	stack   string
}

// attemptOutcome is what an attempt goroutine delivers.
type attemptOutcome struct {
	res  *RunResult
	err  error
	fail *attemptFailure
}

// run executes job i and commits it to l. A nil supervisor runs the job
// once and a run error fails the campaign; a supervisor retries an
// indeterminate attempt (panic, hang, run error) with backoff and
// quarantines the run once its attempts are spent. Cancellation of ctx
// only shortcuts the backoff sleeps — stop semantics live in the ledger.
func (s *Supervisor) run(ctx context.Context, l *Ledger, r *Runner, i int) error {
	job := l.jobs[i]
	spec := job.Spec // plans are shared; never hand out interior pointers
	if s == nil {
		res, err := r.Run(&spec)
		if res, err = FinishJob(job, res, err); err != nil {
			return err
		}
		_, err = l.Commit(i, 1, res, nil, nil)
		return err
	}
	var last attemptFailure
	for attempt := 1; attempt <= s.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			backoff := time.NewTimer(s.opts.Backoff << (attempt - 2))
			select {
			case <-backoff.C:
			case <-ctx.Done():
				backoff.Stop()
			}
		}
		out := s.attempt(r, spec, attempt)
		if out.fail == nil && out.err != nil {
			// A run error is indeterminate from the supervisor's view
			// (I/O trouble, simulated-code panic): retry it, and
			// quarantine if it persists.
			out.fail = &attemptFailure{reason: ReasonError, message: out.err.Error()}
		}
		if out.fail == nil {
			res := out.res
			if job.Probe {
				res.Skipped = true
			}
			res.Retries = attempt - 1
			if res.Retries > 0 && res.Telemetry != nil {
				// Retry provenance rides in the run's own trace, stamped
				// at the trace's last timestamp so per-PID time stays
				// monotone.
				at := res.Telemetry.LastTime()
				res.Telemetry.Emit(at, 0, telemetry.KindRunRetry, spec.String(),
					uint64(res.Retries), reasonCode(last.reason))
				res.Telemetry.Add(telemetry.CtrSupRetry, int64(res.Retries))
			}
			_, err := l.Commit(i, attempt, res, nil, nil)
			return err
		}
		last = *out.fail
	}
	return l.quarantine(QuarantineEntry{
		Index: i, Fault: spec, Key: spec.Key(),
		Reason: last.reason, Message: last.message, Stack: last.stack,
		Attempts: s.opts.MaxAttempts,
	}, quarantineResult(r.Opts.Telemetry, spec, last.reason, s.opts.MaxAttempts))
}

// attempt executes one attempt in its own goroutine so panics are
// recoverable and the wall watchdog can abandon it. An abandoned
// goroutine leaks — Go offers no way to kill it — which is exactly the
// bounded cost the watchdog trades for campaign survival.
func (s *Supervisor) attempt(r *Runner, spec inject.FaultSpec, attempt int) attemptOutcome {
	done := make(chan attemptOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- attemptOutcome{fail: &attemptFailure{
					reason:  ReasonPanic,
					message: fmt.Sprint(p),
					stack:   string(debug.Stack()),
				}}
			}
		}()
		if s.opts.Chaos {
			switch spec.Function {
			case ChaosPanicFunction:
				panic(fmt.Sprintf("chaos: deliberate panic (%v, attempt %d)", spec, attempt))
			case ChaosHangFunction:
				select {} // block until the watchdog abandons us
			case ChaosFlakyFunction:
				if attempt == 1 {
					panic(fmt.Sprintf("chaos: deliberate first-attempt panic (%v)", spec))
				}
			}
		}
		res, err := r.Run(&spec)
		done <- attemptOutcome{res: res, err: err}
	}()
	if s.opts.WallDeadline <= 0 {
		return <-done
	}
	timer := time.NewTimer(s.opts.WallDeadline)
	defer timer.Stop()
	select {
	case out := <-done:
		return out
	case <-timer.C:
		return attemptOutcome{fail: &attemptFailure{
			reason:  ReasonHang,
			message: fmt.Sprintf("wall-clock deadline %v exceeded", s.opts.WallDeadline),
		}}
	}
}

// MarshalRunRecord serializes a run result into the journal's payload
// pair: the JSON result and, when the run collected telemetry, its
// snapshot (telemetry's own codec, the bytes json.Marshal would write).
// This is the wire encoding shard workers stream back, so the
// byte-identical resume guarantee extends to sharded merges.
func MarshalRunRecord(res *RunResult) (result, tel json.RawMessage, err error) {
	result, err = json.Marshal(res)
	if err != nil {
		return nil, nil, fmt.Errorf("run record result marshal: %w", err)
	}
	if res.Telemetry != nil {
		tel = res.Telemetry.AppendSnapshotJSON(nil)
	}
	return result, tel, nil
}

// UnmarshalRunRecord inverts MarshalRunRecord, restoring the telemetry
// collector when a snapshot is present.
func UnmarshalRunRecord(result, tel json.RawMessage) (*RunResult, error) {
	var res RunResult
	if err := json.Unmarshal(result, &res); err != nil {
		return nil, fmt.Errorf("run record result: %w", err)
	}
	if len(tel) != 0 {
		var snap telemetry.Snapshot
		if err := telemetry.DecodeSnapshot(tel, &snap); err != nil {
			return nil, fmt.Errorf("run record telemetry: %w", err)
		}
		res.Telemetry = snap.Restore()
	}
	return &res, nil
}
