package core

// The commit ledger: the one place a campaign's runs are committed. The
// in-process pool, the supervisor's quarantines and the fleet
// coordinator commit through it, and a resume or a replay adopts its
// recorded runs into it before any executor starts, so every executor
// runs only the uncommitted indices and every mode gives one archive.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/telemetry"
)

// Journal records a ledger's commits: a campaign's journal file
// (*journal.Writer), or a fleet worker's result stream, which numbers
// each record of its chunk by the job's global index.
type Journal interface {
	WriteRun(index int, key string, attempts int, result, tel json.RawMessage) error
	WriteQuarantine(index int, key string, fault json.RawMessage, reason, message, stack string, attempts int) error
}

// Ledger owns a campaign's committed state: the result at every job
// index, which indices are committed (first writer wins), the journal's
// plan line and its run and quarantine records, the quarantine list and
// budget, the stop latch, and the serialized progress counter. Safe for
// concurrent use by the executors.
type Ledger struct {
	jobs     []PlanJob
	faults   int // non-probe jobs: the progress total
	jw       Journal
	budget   int               // quarantines that stop the campaign (<= 0: unlimited)
	tel      telemetry.Options // a quarantine placeholder's telemetry
	progress func(done, total int)

	mu        sync.Mutex
	results   []RunResult
	committed []bool
	open      int // uncommitted jobs
	done      int // committed non-probe jobs: the progress counter
	quar      []QuarantineEntry
	stopErr   error
}

// ledgerFor opens the ledger of a prepared campaign: it adopts the runs
// a resumed journal recorded and the runs a replay source resolves,
// then attaches the campaign's journal.
func (c *Campaign) ledgerFor(p *Prepared) (*Ledger, error) {
	l := newLedger(p.Jobs)
	l.faults, l.tel, l.budget = p.Faults, c.runner.Opts.Telemetry, c.policy.MaxQuarantined
	p.ledger = l
	if c.resume != nil {
		if err := l.adoptJournal(c.resume); err != nil {
			return nil, err
		}
	}
	if c.replay != nil {
		resolved, err := c.replay.Resolve(p)
		if err != nil {
			return nil, err
		}
		if len(resolved) != len(p.Jobs) {
			return nil, fmt.Errorf("campaign: replay source resolved %d jobs, plan has %d", len(resolved), len(p.Jobs))
		}
		for i, r := range resolved {
			if r != nil {
				l.commit(i, 0, r, nil, nil) // nothing to journal yet, so it cannot fail
			}
		}
	}
	// Attached after adoption: adopted runs count toward progress but
	// are neither journaled again nor reported.
	l.progress = c.progress
	switch {
	case c.journal == nil:
	case c.resume != nil && c.resume.Plan != nil:
		l.jw = c.journal // the plan line is already there
	default:
		if err := l.AttachJournal(c.journal); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// newLedger opens an empty ledger over jobs.
func newLedger(jobs []PlanJob) *Ledger {
	l := &Ledger{jobs: jobs, committed: make([]bool, len(jobs)), open: len(jobs)}
	if len(jobs) > 0 {
		l.results = make([]RunResult, len(jobs)) // an empty plan archives "runs": null
	}
	return l
}

// planLine returns the job keys (PlanJob.Key, in job order) and their
// fnv64a fingerprint: what the journal's plan line records and a resume
// must reproduce before any journaled index is trusted.
func planLine(jobs []PlanJob) ([]string, string) {
	keys := make([]string, len(jobs))
	h := fnv.New64a()
	for i, j := range jobs {
		keys[i] = j.Key()
		io.WriteString(h, keys[i])
		io.WriteString(h, "\n")
	}
	return keys, fmt.Sprintf("%016x", h.Sum64())
}

// AttachJournal writes the plan line to a fresh journal and records
// every later commit there, as WithJournal does for a campaign that
// starts one. An executor that brings its own journal
// (shard.FleetOptions.Journal) attaches it before its first commit.
func (l *Ledger) AttachJournal(jw *journal.Writer) error {
	if err := jw.WritePlan(planLine(l.jobs)); err != nil {
		return err
	}
	l.jw = jw
	return nil
}

// adoptJournal adopts a resumed journal's runs, and its quarantines with
// their list entries (which count toward the budget) and placeholders.
func (l *Ledger) adoptJournal(rep *journal.Replayed) error {
	if rep.Plan != nil {
		if _, fp := planLine(l.jobs); rep.Plan.Fingerprint != fp {
			return fmt.Errorf("resume plan mismatch: journal fingerprint %s, rebuilt %s (different fault list, workload, or catalog?)",
				rep.Plan.Fingerprint, fp)
		}
	}
	for _, recs := range []map[int]*journal.Record{rep.Runs, rep.Quarantined} {
		for _, rec := range recs {
			if _, err := l.CommitRecord(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// CommitRecord commits a recorded run or quarantine at its index
// through the steps the pool's own commits take: the key check, first
// writer wins, the journal record and progress (once attached), and for
// a quarantine the list entry, the budget and a placeholder. The fleet
// commits its workers' records with it, and a resume adopts its
// journal's. A committed run's recorder keeps its trace's events as
// rec.Tel's bytes (UnmarshalRunRecord). It reports whether the record
// was the index's first.
func (l *Ledger) CommitRecord(rec *journal.Record) (bool, error) {
	i := rec.Index
	if err := l.checkKey(rec.Kind, i, rec.Key); err != nil {
		return false, err
	}
	if rec.Kind == journal.KindRun {
		res, err := UnmarshalRunRecord(rec.Result, rec.Tel)
		if err != nil {
			return false, fmt.Errorf("journal record %d: %w", i, err)
		}
		return l.commit(i, rec.Attempts, res, rec.Result, rec.Tel)
	}
	e := QuarantineEntry{
		Index: i, Fault: l.jobs[i].Spec, Key: rec.Key,
		Reason: rec.Reason, Message: rec.Message, Stack: rec.Stack,
		Attempts: rec.Attempts,
	}
	if len(rec.Fault) != 0 {
		if err := json.Unmarshal(rec.Fault, &e.Fault); err != nil {
			return false, fmt.Errorf("journal quarantine %d fault: %w", i, err)
		}
	}
	return l.quarantine(e)
}

// checkKey rejects a journaled record whose index or key the plan lacks.
func (l *Ledger) checkKey(kind string, i int, key string) error {
	if i < 0 || i >= len(l.jobs) {
		return fmt.Errorf("journal %s %d is outside the %d-job plan", kind, i, len(l.jobs))
	}
	if want := l.jobs[i].Key(); key != want {
		return fmt.Errorf("journal %s %d keyed %s, plan expects %s", kind, i, key, want)
	}
	return nil
}

// commit stores a run at job index i, marking a probe's Skipped,
// journals it and reports progress. The first writer wins: a later
// commit of the same index returns false and leaves no trace. result and tel are the
// run's journal payloads (MarshalRunRecord) when the caller holds them,
// as CommitRecord does; nil ones are encoded here when journaling. A
// journal write error commits nothing.
func (l *Ledger) commit(i, attempts int, res *RunResult, result, tel json.RawMessage) (bool, error) {
	if l.jobs[i].Probe {
		res.Skipped = true
	}
	if l.jw != nil && result == nil {
		var err error
		if result, tel, err = MarshalRunRecord(res); err != nil {
			return false, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.committed[i] {
		return false, nil
	}
	if l.jw != nil {
		if err := l.jw.WriteRun(i, l.jobs[i].Key(), attempts, result, tel); err != nil {
			return false, err
		}
	}
	l.storeLocked(i, *res, true)
	return true, nil
}

// quarantine commits a run the supervisor gave up on: the quarantine
// record, the list entry, the budget check and the placeholder result.
// As in commit, the first writer wins and reports true.
func (l *Ledger) quarantine(e QuarantineEntry) (bool, error) {
	fault, err := json.Marshal(e.Fault)
	if err != nil {
		return false, fmt.Errorf("quarantine marshal: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.committed[e.Index] {
		return false, nil
	}
	if l.jw != nil {
		if err := l.jw.WriteQuarantine(e.Index, e.Key, fault, e.Reason, e.Message, e.Stack, e.Attempts); err != nil {
			return false, err
		}
	}
	l.noteQuarantine(e)
	l.storeLocked(e.Index, *quarantineResult(l.tel, e.Fault, e.Reason, e.Attempts), true)
	return true, nil
}

// noteQuarantine lists a quarantine and latches the budget stop once the
// list reaches it. Caller holds mu, or owns the ledger outright.
func (l *Ledger) noteQuarantine(e QuarantineEntry) {
	l.quar = append(l.quar, e)
	if l.budget > 0 && len(l.quar) >= l.budget && l.stopErr == nil {
		l.stopErr = &QuarantineBudgetError{Quarantined: len(l.quar), Budget: l.budget}
	}
}

// storeLocked commits res at index i; report fires the progress callback
// for a non-probe job, under mu, so callbacks are serialized and see the
// counter go up by exactly one. Caller holds mu.
func (l *Ledger) storeLocked(i int, res RunResult, report bool) {
	l.results[i] = res
	l.committed[i] = true
	l.open--
	if !l.jobs[i].Probe {
		l.done++
		if report && l.progress != nil {
			l.progress(l.done, l.faults)
		}
	}
}

// Pending returns the uncommitted job indices in ascending order: the
// work an executor still has to run.
func (l *Ledger) Pending() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, l.open)
	for i, ok := range l.committed {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}

// Uncommitted filters indices down to those not yet committed.
func (l *Ledger) Uncommitted(indices []int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, len(indices))
	for _, i := range indices {
		if !l.committed[i] {
			out = append(out, i)
		}
	}
	return out
}

// Complete reports whether every job is committed.
func (l *Ledger) Complete() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.open == 0
}

// Results returns the results in job order; an uncommitted index holds
// the zero value.
func (l *Ledger) Results() []RunResult { return l.results }

// quarantined returns the quarantine list sorted by job index (nil when
// empty).
func (l *Ledger) quarantined() []QuarantineEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]QuarantineEntry(nil), l.quar...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Stop latches the first stop cause, as the quarantine budget does:
// executors stop claiming jobs and the campaign returns the cause with
// its partial results.
func (l *Ledger) Stop(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopErr == nil {
		l.stopErr = cause
	}
}

// StopCause returns the latched stop cause (nil while running).
func (l *Ledger) StopCause() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stopErr
}

// quarantineResult builds the placeholder RunResult occupying a
// quarantined run's index: never activated, never injected, outcome
// HarnessHang when the watchdog fired. Its telemetry (when the campaign
// collects any) is a single quarantine event at virtual time zero, so
// merged exports keep one collector per index.
func quarantineResult(tel telemetry.Options, spec inject.FaultSpec, reason string, attempts int) *RunResult {
	res := &RunResult{
		Fault:       spec,
		Quarantined: true,
		Retries:     attempts - 1,
	}
	if reason == ReasonHang {
		res.Outcome = HarnessHang
	}
	if tel.Enabled {
		rec := tel.NewRecorder()
		rec.Emit(0, 0, telemetry.KindRunQuarantine, spec.String(),
			uint64(attempts), reasonCode(reason))
		rec.Add(telemetry.CtrSupQuarantine, 1)
		res.Telemetry = rec
	}
	return res
}
