package core

// Campaign supervisor: the resilience layer between the worker pool and
// the per-run lifecycle, and the only way a campaign runs a run. The
// paper's DTS ran thousands of runs unattended; a single hung or
// panicking run, or a process killed at run 40k, must not cost the
// campaign. Every run goes through one policy (SupervisorOptions): a
// wall-clock watchdog (virtual time already bounds simulated hangs —
// this catches live bugs in the harness/sim itself), panic capture that
// quarantines the offending FaultSpec with its stack, and bounded
// retry-with-backoff for indeterminate attempts. The journal that makes
// an interrupted campaign resumable with byte-identical output, the
// quarantine list and its budget belong to the campaign's Ledger
// (ledger.go).

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

// firstBackoff is the first retry delay; it doubles per retry up to
// maxBackoff, so a large retry budget sleeps at most that long per
// retry. The schedule is fixed rather than a policy field because the
// journal header does not carry it, and every executor must retry alike.
const (
	firstBackoff = 5 * time.Millisecond
	maxBackoff   = 100 * time.Millisecond
)

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

// SupervisorOptions is the attempt policy every run of a campaign runs
// under: the wall-clock watchdog, retries with backoff, the chaos hooks
// and the quarantine budget. A zero field takes its default (3 attempts,
// no watchdog, no budget, no chaos). What a run commits — its result or
// its quarantine, and the stop the budget latches — goes through the
// campaign's Ledger.
type SupervisorOptions struct {
	// WallDeadline bounds each attempt in wall-clock time (0 = no
	// watchdog). An attempt that exceeds it is abandoned — its goroutine
	// leaks by design, since Go cannot kill it — and retried.
	WallDeadline time.Duration
	// MaxAttempts is the total attempt budget per run (0 =
	// DefaultMaxAttempts). The run is quarantined when it is exhausted;
	// each retry first sleeps the backoff (5 ms, doubling up to 100 ms).
	MaxAttempts int
	// MaxQuarantined is the campaign's failure budget: reaching this many
	// quarantined runs stops the campaign with QuarantineBudgetError
	// (so 1 stops on the first quarantine). Zero or negative: unlimited.
	MaxQuarantined int
	// Chaos enables the reserved DTSChaos* function hooks.
	Chaos bool
}

// withDefaults fills the zero fields in.
func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	return o
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

// run executes job i under the policy and commits it to l: an
// indeterminate attempt (panic, hang, run error) is retried after a
// backoff, and the run is quarantined once its attempts are spent.
// Cancellation of ctx only shortcuts the backoff sleeps — stop
// semantics live in the ledger.
func (o SupervisorOptions) run(ctx context.Context, l *Ledger, r *Runner, i int) error {
	spec := l.jobs[i].Spec // plans are shared; never hand out interior pointers
	var last attemptFailure
	for attempt := 1; attempt <= o.MaxAttempts; attempt++ {
		if attempt > 1 {
			backoff := time.NewTimer(backoff(attempt - 1))
			select {
			case <-backoff.C:
			case <-ctx.Done():
				backoff.Stop()
			}
		}
		out := o.attempt(r, spec, attempt)
		if out.fail == nil && out.err != nil {
			// A run error is indeterminate from the supervisor's view
			// (I/O trouble, simulated-code panic): retry it, and
			// quarantine if it persists.
			out.fail = &attemptFailure{reason: ReasonError, message: out.err.Error()}
		}
		if out.fail == nil {
			res := out.res
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
			_, err := l.commit(i, attempt, res, nil, nil)
			return err
		}
		last = *out.fail
	}
	_, err := l.quarantine(QuarantineEntry{
		Index: i, Fault: spec, Key: spec.Key(),
		Reason: last.reason, Message: last.message, Stack: last.stack,
		Attempts: o.MaxAttempts,
	})
	return err
}

// backoff is the delay before retry k (k = 1 precedes the second
// attempt): firstBackoff doubled k-1 times, capped at maxBackoff.
func backoff(k int) time.Duration {
	d := firstBackoff
	for ; k > 1 && d < maxBackoff; k-- {
		d = min(2*d, maxBackoff)
	}
	return d
}

// Bound is the longest a run can take before it commits or is
// quarantined: every attempt abandoned at the wall deadline, plus the
// backoffs run sleeps between them, saturating at a century. Zero
// without a watchdog, which leaves a hang unbounded.
func (o SupervisorOptions) Bound() time.Duration {
	if o.WallDeadline <= 0 {
		return 0
	}
	n := o.MaxAttempts
	bound := float64(n) * float64(o.WallDeadline)
	for k := 1; k < n; k++ {
		if d := backoff(k); d < maxBackoff {
			bound += float64(d)
			continue
		}
		bound += float64(n-k) * float64(maxBackoff) // every later retry sleeps the cap
		break
	}
	return time.Duration(min(bound, float64(100*365*24*time.Hour)))
}

// attempt executes one attempt in its own goroutine so panics are
// recoverable and the wall watchdog can abandon it. An abandoned
// goroutine leaks — Go offers no way to kill it — which is exactly the
// bounded cost the watchdog trades for campaign survival.
func (o SupervisorOptions) attempt(r *Runner, spec inject.FaultSpec, attempt int) attemptOutcome {
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
		if o.Chaos {
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
	if o.WallDeadline <= 0 {
		return <-done
	}
	timer := time.NewTimer(o.WallDeadline)
	defer timer.Stop()
	select {
	case out := <-done:
		return out
	case <-timer.C:
		return attemptOutcome{fail: &attemptFailure{
			reason:  ReasonHang,
			message: fmt.Sprintf("wall-clock deadline %v exceeded", o.WallDeadline),
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
