package core

// Campaign supervisor: the resilience layer between the worker pool and
// the per-run lifecycle. The paper's DTS ran thousands of runs
// unattended; at the ROADMAP's million-run scale a single hung or
// panicking run, or a process killed at run 40k, must not cost the
// campaign. The supervisor wraps every run with a wall-clock watchdog
// (virtual time already bounds simulated hangs — this catches live bugs
// in the harness/sim itself), panic capture that quarantines the
// offending FaultSpec with its stack, bounded retry-with-backoff for
// indeterminate attempts, and an append-only results journal that makes
// an interrupted campaign resumable with byte-identical output.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ntdts/internal/inject"
	"ntdts/internal/journal"
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

// Supervisor carries the resilience state of one campaign: the policy,
// the optional journal, the replayed records of a resume, the
// quarantine list, and the stop latch. Safe for concurrent use by the
// worker pool.
type Supervisor struct {
	opts SupervisorOptions

	jw *journal.Writer

	resumePlan *journal.Plan
	resumeRuns map[int]journal.RunRecord
	resumeQuar map[int]journal.QuarantineRecord

	quarMu sync.Mutex
	quar   []QuarantineEntry

	stop    atomic.Bool
	stopMu  sync.Mutex
	stopErr error
}

// NewSupervisor builds a supervisor with defaults filled in.
func NewSupervisor(opts SupervisorOptions) *Supervisor {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.Backoff <= 0 {
		opts.Backoff = defaultBackoff
	}
	return &Supervisor{
		opts:       opts,
		resumeRuns: make(map[int]journal.RunRecord),
		resumeQuar: make(map[int]journal.QuarantineRecord),
	}
}

// Options returns the active policy.
func (s *Supervisor) Options() SupervisorOptions { return s.opts }

// AttachJournal directs the supervisor to record every completed or
// quarantined run to w.
func (s *Supervisor) AttachJournal(w *journal.Writer) { s.jw = w }

// LoadResume installs the replayed state of an interrupted campaign:
// completed runs replay from it instead of re-executing. The rebuilt
// plan is validated against rep.Plan in syncPlan.
func (s *Supervisor) LoadResume(rep *journal.Replayed) {
	s.resumePlan = rep.Plan
	for i, r := range rep.Runs {
		s.resumeRuns[i] = r
	}
	for i, q := range rep.Quarantined {
		s.resumeQuar[i] = q
	}
}

// RequestStop latches the first stop cause; workers stop claiming jobs
// and the campaign returns the cause with partial results.
func (s *Supervisor) RequestStop(cause error) {
	s.stopMu.Lock()
	if s.stopErr == nil {
		s.stopErr = cause
	}
	s.stopMu.Unlock()
	s.stop.Store(true)
}

func (s *Supervisor) stopped() bool { return s.stop.Load() }

func (s *Supervisor) stopCause() error {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	return s.stopErr
}

// Quarantined returns the quarantine list sorted by job index.
func (s *Supervisor) Quarantined() []QuarantineEntry {
	s.quarMu.Lock()
	out := make([]QuarantineEntry, len(s.quar))
	copy(out, s.quar)
	s.quarMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// JobKeys renders the plan's job identity sequence: PlanJob.Key per
// job, in job-list order. This is what the journal's plan line records
// and what a resume must reproduce exactly.
func JobKeys(jobs []PlanJob) []string {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
	}
	return keys
}

// PlanFingerprint hashes the job identity sequence (fnv64a): the value
// journal plan lines carry and dts -resume validates.
func PlanFingerprint(keys []string) string {
	h := fnv.New64a()
	for _, k := range keys {
		io.WriteString(h, k)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// syncPlan reconciles the rebuilt job list with the journal: on a fresh
// journaled campaign it writes the plan line; on a resume it validates
// that the rebuilt plan reproduces the journaled fingerprint — the
// precondition for trusting any journaled record's index.
func (s *Supervisor) syncPlan(jobs []PlanJob) error {
	keys := JobKeys(jobs)
	fp := PlanFingerprint(keys)
	if s.resumePlan != nil {
		if s.resumePlan.Fingerprint != fp {
			return fmt.Errorf("resume plan mismatch: journal fingerprint %s, rebuilt %s (different fault list, workload, or catalog?)",
				s.resumePlan.Fingerprint, fp)
		}
		return nil
	}
	if s.jw != nil {
		return s.jw.WritePlan(keys, fp)
	}
	return nil
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

// execute runs (or replays) one job under supervision, returning the
// result to store at its job-list index. A nil result with a nil error
// never happens; a nil error with a quarantined placeholder result is
// the graceful-degradation path. Cancellation of ctx only shortcuts the
// retry backoff sleeps — stop semantics live in the worker pool.
func (s *Supervisor) execute(ctx context.Context, r *Runner, index int, job PlanJob) (*RunResult, error) {
	spec := job.Spec
	key := spec.Key()

	if rec, ok := s.resumeRuns[index]; ok {
		return s.replayRun(index, key, rec)
	}
	if qrec, ok := s.resumeQuar[index]; ok {
		return s.replayQuarantine(r, index, spec, key, qrec)
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
			if err := s.journalRun(index, key, attempt, res); err != nil {
				return nil, err
			}
			return res, nil
		}
		last = *out.fail
	}
	return s.quarantine(r, index, spec, key, last, s.opts.MaxAttempts)
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

// quarantine records a run the retry budget could not save, journals
// it, enforces the failure budget, and returns the deterministic
// placeholder result that occupies the run's index.
func (s *Supervisor) quarantine(r *Runner, index int, spec inject.FaultSpec, key string, last attemptFailure, attempts int) (*RunResult, error) {
	entry := QuarantineEntry{
		Index: index, Fault: spec, Key: key,
		Reason: last.reason, Message: last.message, Stack: last.stack,
		Attempts: attempts,
	}
	if s.jw != nil {
		faultRaw, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("quarantine marshal: %w", err)
		}
		if err := s.jw.WriteQuarantine(index, key, faultRaw, last.reason, last.message, last.stack, attempts); err != nil {
			return nil, err
		}
	}
	s.noteQuarantine(entry)
	return s.quarantineResult(r, spec, last.reason, attempts), nil
}

// noteQuarantine appends to the quarantine list and trips the failure
// budget when exceeded.
func (s *Supervisor) noteQuarantine(entry QuarantineEntry) {
	s.quarMu.Lock()
	s.quar = append(s.quar, entry)
	n := len(s.quar)
	s.quarMu.Unlock()
	if s.opts.MaxQuarantined > 0 && n >= s.opts.MaxQuarantined {
		s.RequestStop(&QuarantineBudgetError{Quarantined: n, Budget: s.opts.MaxQuarantined})
	}
}

// quarantineResult builds the placeholder RunResult occupying a
// quarantined run's index: never activated, never injected, outcome
// HarnessHang when the watchdog fired. Its telemetry (when the campaign
// collects any) is a single quarantine event at virtual time zero, so
// merged exports keep one collector per index.
func (s *Supervisor) quarantineResult(r *Runner, spec inject.FaultSpec, reason string, attempts int) *RunResult {
	res := &RunResult{
		Fault:       spec,
		Quarantined: true,
		Retries:     attempts - 1,
	}
	if reason == ReasonHang {
		res.Outcome = HarnessHang
	}
	if r.Opts.Telemetry.Enabled {
		rec := r.Opts.Telemetry.NewRecorder()
		rec.Emit(0, 0, telemetry.KindRunQuarantine, spec.String(),
			uint64(attempts), reasonCode(reason))
		rec.Add(telemetry.CtrSupQuarantine, 1)
		res.Telemetry = rec
	}
	return res
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

// journalRun writes one completed run to the journal (no-op when not
// journaling). The telemetry snapshot rides along so a resumed
// campaign's trace and metrics exports stay byte-identical.
func (s *Supervisor) journalRun(index int, key string, attempts int, res *RunResult) error {
	if s.jw == nil {
		return nil
	}
	resultRaw, telRaw, err := MarshalRunRecord(res)
	if err != nil {
		return err
	}
	return s.jw.WriteRun(index, key, attempts, resultRaw, telRaw)
}

// replayRun rebuilds a completed run from its journal record instead of
// re-executing it.
func (s *Supervisor) replayRun(index int, key string, rec journal.RunRecord) (*RunResult, error) {
	if rec.Key != key {
		return nil, fmt.Errorf("journal record %d keyed %s, plan expects %s", index, rec.Key, key)
	}
	res, err := UnmarshalRunRecord(rec.Result, rec.Tel)
	if err != nil {
		return nil, fmt.Errorf("journal record %d: %w", index, err)
	}
	return res, nil
}

// replayQuarantine rebuilds a quarantined run from its journal record:
// the quarantine list entry reappears (budget included) and the same
// placeholder result — built by the same constructor as a fresh
// quarantine — occupies the index.
func (s *Supervisor) replayQuarantine(r *Runner, index int, spec inject.FaultSpec, key string, rec journal.QuarantineRecord) (*RunResult, error) {
	if rec.Key != key {
		return nil, fmt.Errorf("journal quarantine %d keyed %s, plan expects %s", index, rec.Key, key)
	}
	var fault inject.FaultSpec
	if len(rec.Fault) != 0 {
		if err := json.Unmarshal(rec.Fault, &fault); err != nil {
			return nil, fmt.Errorf("journal quarantine %d fault: %w", index, err)
		}
	} else {
		fault = spec
	}
	s.noteQuarantine(QuarantineEntry{
		Index: index, Fault: fault, Key: key,
		Reason: rec.Reason, Message: rec.Message, Stack: rec.Stack,
		Attempts: rec.Attempts,
	})
	return s.quarantineResult(r, fault, rec.Reason, rec.Attempts), nil
}
