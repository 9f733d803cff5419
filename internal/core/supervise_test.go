package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// supervisedSweep executes a journaled, telemetry-enabled supervised
// sweep of specs and returns the campaign artifacts byte-comparably:
// marshaled results, the merged JSONL trace, and the metrics text. With
// a non-nil rep the sweep resumes: completed runs replay from the
// journal (whose torn tail is truncated first).
func supervisedSweep(t *testing.T, specs []inject.FaultSpec, par int, jpath string, rep *journal.Replayed, opts SupervisorOptions) (results, trace []byte, metrics string) {
	t.Helper()
	runner := NewRunner(workload.NewApache1(workload.Standalone),
		RunnerOptions{Telemetry: telemetry.Options{Enabled: true}})
	var (
		jw  *journal.Writer
		err error
	)
	if rep != nil {
		jw, err = journal.Append(jpath, rep.ValidBytes, rep.Records)
	} else {
		jw, err = journal.Create(jpath, journal.Header{Workload: "Apache1", Supervision: "none", Telemetry: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	runs, err := specRuns(runner, specs, par, WithSupervision(opts), WithJournal(jw, rep))
	if err != nil {
		t.Fatalf("supervised sweep: %v", err)
	}
	if err := jw.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	set := CollectTelemetry(nil, runs)
	var buf bytes.Buffer
	if err := set.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return resJSON, buf.Bytes(), set.MetricsText()
}

// TestResumeEquivalence is the tentpole guarantee: a journaled campaign
// killed at an arbitrary byte offset (modeled exactly as SIGKILL leaves
// an append-only file: a truncated prefix, possibly mid-line) and then
// resumed produces results, trace, and metrics byte-identical to the
// uninterrupted campaign — at parallelism 1, 4, and 16.
func TestResumeEquivalence(t *testing.T) {
	specs := telemetrySpecs(60)
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.journal")
	gRes, gTrace, gMetrics := supervisedSweep(t, specs, 4, golden, nil, SupervisorOptions{})
	full, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 4, 16} {
		// Kill mid-campaign: keep roughly half the journal, cutting
		// mid-line so the torn-tail path is exercised too. Each
		// iteration gets its own path so one resume's checkpoint
		// sidecar cannot shadow the next truncated copy.
		cut := len(full) / 2
		jpath := filepath.Join(dir, fmt.Sprintf("killed-%d.journal", par))
		if err := os.WriteFile(jpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := journal.Replay(jpath)
		if err != nil {
			t.Fatalf("parallelism %d: replay: %v", par, err)
		}
		res, trace, metrics := supervisedSweep(t, specs, par, jpath, rep, SupervisorOptions{})
		if !bytes.Equal(res, gRes) {
			t.Errorf("parallelism %d: resumed results differ from uninterrupted run", par)
		}
		if !bytes.Equal(trace, gTrace) {
			t.Errorf("parallelism %d: resumed trace differs from uninterrupted run", par)
		}
		if metrics != gMetrics {
			t.Errorf("parallelism %d: resumed metrics differ from uninterrupted run", par)
		}
	}
}

// TestJournalPrefixResume is the replay-idempotence property test: for
// fuzzed truncation points across the whole journal — including ones
// that tear a line in half — resuming from the prefix reproduces the
// uninterrupted campaign byte-for-byte. Truncations that destroy the
// header are rejected cleanly rather than resumed.
func TestJournalPrefixResume(t *testing.T) {
	specs := telemetrySpecs(40)
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.journal")
	gRes, gTrace, gMetrics := supervisedSweep(t, specs, 4, golden, nil, SupervisorOptions{})
	full, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	cuts := []int{0, 1, len(full) - 1, len(full)}
	for i := 0; i < 10; i++ {
		cuts = append(cuts, rng.Intn(len(full)))
	}
	for ci, cut := range cuts {
		jpath := filepath.Join(dir, fmt.Sprintf("prefix-%d.journal", ci))
		if err := os.WriteFile(jpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := journal.Replay(jpath)
		if err != nil {
			// Only a destroyed header is allowed to fail replay.
			if !strings.Contains(err.Error(), "header") {
				t.Errorf("cut %d: unexpected replay error: %v", cut, err)
			}
			continue
		}
		res, trace, metrics := supervisedSweep(t, specs, 4, jpath, rep, SupervisorOptions{})
		if !bytes.Equal(res, gRes) || !bytes.Equal(trace, gTrace) || metrics != gMetrics {
			t.Errorf("cut %d: resumed campaign is not byte-identical to the uninterrupted run", cut)
		}
	}
}

// chaosSpec builds a fault spec naming a reserved chaos function.
func chaosSpec(fn string) inject.FaultSpec {
	return inject.FaultSpec{Function: fn, Param: 0, Invocation: 1, Type: inject.ZeroBits}
}

// TestSupervisorQuarantine proves the resilience paths end to end: a
// deliberately-panicking and a deliberately-hanging spec are quarantined
// without failing the campaign (with stack and deadline evidence,
// respecting the attempt budget), a flaky spec is saved by one retry
// with provenance in its telemetry, and ordinary specs are untouched.
func TestSupervisorQuarantine(t *testing.T) {
	specs := []inject.FaultSpec{
		{Function: "ReadFile", Param: 0, Invocation: 1, Type: inject.ZeroBits},
		chaosSpec(ChaosPanicFunction),
		chaosSpec(ChaosHangFunction),
		chaosSpec(ChaosFlakyFunction),
		{Function: "CloseHandle", Param: 0, Invocation: 1, Type: inject.FlipBits},
	}
	runner := NewRunner(workload.NewApache1(workload.Standalone),
		RunnerOptions{Telemetry: telemetry.Options{Enabled: true}})
	sup := SupervisorOptions{
		Chaos:        true,
		MaxAttempts:  2,
		WallDeadline: 100 * time.Millisecond,
	}
	set, err := NewCampaign(runner, WithSpecs(specs), WithParallelism(2), WithSupervision(sup)).Run(context.Background())
	if err != nil {
		t.Fatalf("campaign failed instead of quarantining: %v", err)
	}
	runs := set.Runs
	if len(runs) != len(specs) {
		t.Fatalf("%d results for %d specs", len(runs), len(specs))
	}

	quar := set.Quarantined
	if len(quar) != 2 {
		t.Fatalf("quarantined %d runs, want 2 (panic + hang): %+v", len(quar), quar)
	}
	byFn := map[string]QuarantineEntry{}
	for _, q := range quar {
		byFn[q.Fault.Function] = q
	}
	pq, ok := byFn[ChaosPanicFunction]
	if !ok {
		t.Fatal("panic spec not quarantined")
	}
	if pq.Reason != ReasonPanic || pq.Attempts != 2 {
		t.Errorf("panic quarantine: reason %q attempts %d, want panic/2", pq.Reason, pq.Attempts)
	}
	if !strings.Contains(pq.Message, "deliberate panic") || !strings.Contains(pq.Stack, "supervise") {
		t.Errorf("panic quarantine lacks evidence: message %q, stack %d bytes", pq.Message, len(pq.Stack))
	}
	hq, ok := byFn[ChaosHangFunction]
	if !ok {
		t.Fatal("hang spec not quarantined")
	}
	if hq.Reason != ReasonHang || hq.Attempts != 2 {
		t.Errorf("hang quarantine: reason %q attempts %d, want hang/2", hq.Reason, hq.Attempts)
	}
	if !strings.Contains(hq.Message, "wall-clock deadline") {
		t.Errorf("hang quarantine lacks the deadline evidence: %q", hq.Message)
	}

	// Quarantined placeholders occupy their index; the hang carries the
	// supervisor-only HarnessHang outcome.
	if !runs[1].Quarantined || !runs[2].Quarantined {
		t.Error("quarantined runs not marked in results")
	}
	if runs[2].Outcome != HarnessHang {
		t.Errorf("hung run outcome %v, want %v", runs[2].Outcome, HarnessHang)
	}
	if runs[2].Outcome.String() != "harness hang" {
		t.Errorf("HarnessHang renders as %q", runs[2].Outcome)
	}

	// The flaky spec survived on its second attempt, with retry
	// provenance in its own trace.
	if runs[3].Quarantined || runs[3].Retries != 1 {
		t.Errorf("flaky run: quarantined=%v retries=%d, want saved with 1 retry", runs[3].Quarantined, runs[3].Retries)
	}
	if runs[3].Telemetry == nil {
		t.Fatal("flaky run has no telemetry")
	}
	if runs[3].Telemetry.Counter(telemetry.CtrSupRetry) != 1 {
		t.Errorf("flaky run retry counter %d, want 1", runs[3].Telemetry.Counter(telemetry.CtrSupRetry))
	}
	found := false
	for _, e := range runs[3].Telemetry.Events() {
		if e.Kind == telemetry.KindRunRetry {
			found = true
			if e.A != 1 {
				t.Errorf("retry event counts %d retries, want 1", e.A)
			}
		}
	}
	if !found {
		t.Error("flaky run trace has no run-retry event")
	}

	// Ordinary specs are untouched by the supervisor.
	if runs[0].Quarantined || runs[0].Retries != 0 || runs[4].Quarantined || runs[4].Retries != 0 {
		t.Error("ordinary runs were touched by the supervisor")
	}

	// HarnessHang stays out of the paper's five-outcome set.
	for _, o := range AllOutcomes() {
		if o == HarnessHang {
			t.Fatal("HarnessHang leaked into AllOutcomes")
		}
	}
}

// TestQuarantineBudget proves graceful degradation: exceeding
// -max-quarantined stops the campaign with QuarantineBudgetError and
// partial results instead of burning the remaining sweep.
func TestQuarantineBudget(t *testing.T) {
	var specs []inject.FaultSpec
	specs = append(specs, chaosSpec(ChaosPanicFunction))
	specs = append(specs, chaosSpec(ChaosHangFunction))
	for _, s := range telemetrySpecs(20) {
		specs = append(specs, s)
	}
	runner := NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{})
	sup := SupervisorOptions{
		Chaos:          true,
		MaxAttempts:    1,
		WallDeadline:   50 * time.Millisecond,
		MaxQuarantined: 1,
	}
	runs, err := specRuns(runner, specs, 1, WithSupervision(sup))
	var budget *QuarantineBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("error %v, want QuarantineBudgetError", err)
	}
	if budget.Budget != 1 || budget.Quarantined < 1 {
		t.Errorf("budget error %+v", budget)
	}
	if len(runs) != len(specs) {
		t.Fatalf("partial results slice spans %d, want the full plan %d", len(runs), len(specs))
	}
	executed := 0
	for _, r := range runs {
		if r.Completed || r.Quarantined {
			executed++
		}
	}
	if executed >= len(specs) {
		t.Error("budget stop did not save any remaining runs")
	}
}

// TestSupervisorInterrupt models SIGINT: cancelling the context
// mid-campaign drains the workers and returns partial results with the
// interrupt as the cause; the journal stays replayable and a resume
// completes the campaign byte-identically.
func TestSupervisorInterrupt(t *testing.T) {
	specs := telemetrySpecs(40)
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.journal")
	gRes, gTrace, gMetrics := supervisedSweep(t, specs, 4, golden, nil, SupervisorOptions{})

	jpath := filepath.Join(dir, "interrupted.journal")
	runner := NewRunner(workload.NewApache1(workload.Standalone),
		RunnerOptions{Telemetry: telemetry.Options{Enabled: true}})
	jw, err := journal.Create(jpath, journal.Header{Workload: "Apache1", Supervision: "none", Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	progress := func(done, total int) {
		if done >= 10 {
			cancel()
		}
	}
	_, err = NewCampaign(runner, WithSpecs(specs), WithParallelism(4), WithProgress(progress),
		WithJournal(jw, nil)).Run(ctx)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrInterrupted", err)
	}
	if err := jw.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if jw.Records() == 0 {
		t.Fatal("interrupt flushed an empty journal")
	}

	rep, err := journal.Replay(jpath)
	if err != nil {
		t.Fatal(err)
	}
	res, trace, metrics := supervisedSweep(t, specs, 4, jpath, rep, SupervisorOptions{})
	if !bytes.Equal(res, gRes) || !bytes.Equal(trace, gTrace) || metrics != gMetrics {
		t.Error("resume after interrupt is not byte-identical to the uninterrupted run")
	}
}

// TestSupervisorBound: the retry delay doubles from 5 ms up to the
// 100 ms ceiling and stays there, so 24 retries sleep about 2 s rather
// than hours; Bound sums exactly that schedule on top of every
// attempt's watchdog period, is zero without a watchdog, and saturates
// instead of overflowing under a huge retry budget.
func TestSupervisorBound(t *testing.T) {
	const ms = time.Millisecond
	want := []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms}
	for len(want) < 24 {
		want = append(want, maxBackoff)
	}
	for k := 1; k <= len(want); k++ {
		if got := backoff(k); got != want[k-1] {
			t.Errorf("backoff before attempt %d = %v, want %v", k+1, got, want[k-1])
		}
	}
	for _, c := range []struct {
		opts SupervisorOptions
		want time.Duration
	}{
		{SupervisorOptions{MaxAttempts: 3}, 0},
		{SupervisorOptions{WallDeadline: 100 * ms, MaxAttempts: 3}, 300*ms + 5*ms + 10*ms},
		{SupervisorOptions{WallDeadline: time.Second, MaxAttempts: 25}, 25*time.Second + 155*ms + 19*maxBackoff},
		{SupervisorOptions{WallDeadline: time.Hour, MaxAttempts: 1 << 30}, 100 * 365 * 24 * time.Hour},
	} {
		if got := c.opts.withDefaults().Bound(); got != c.want {
			t.Errorf("%+v: Bound() = %v, want %v", c.opts, got, c.want)
		}
	}
}
