// Package journal implements the crash-safe, resumable results store of
// the campaign supervisor: an append-only JSONL file recording the
// campaign configuration (header), the planned job list (plan), and one
// record per completed or quarantined run, plus a periodically-updated
// atomic checkpoint sidecar.
//
// Crash safety rests on two properties. First, every record is exactly
// one newline-terminated JSON line written with a single Write call, so
// a process killed mid-write leaves at most one torn line — and only at
// the tail. Replay detects the torn tail (missing newline, or invalid
// JSON on the final line) and discards it; an invalid line anywhere
// *before* the tail is corruption and a hard error. Second, the
// checkpoint sidecar (<journal>.ckpt) is replaced atomically (write
// temp, rename) every CheckpointEvery records, recording a byte offset
// known to end on a record boundary; replay cross-checks it to
// distinguish "torn tail from a crash" (ok) from "truncated below the
// last checkpoint" (corruption).
//
// The package is deliberately payload-agnostic: run results and
// telemetry snapshots travel as raw JSON bytes (json.RawMessage), so
// journal does not import internal/core (core imports journal) and the
// replayed bytes are exactly the written bytes — the foundation of the
// byte-identical resume guarantee. Run lines, the bulk of every journal
// and of the fleet wire, are built by AppendRun, which splices already
// compact payloads in verbatim instead of re-marshalling them, and the
// reader decodes them on a matching fast path.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"ntdts/internal/jsonwire"
)

// Version is the journal format version; Replay rejects others.
const Version = 1

// CheckpointEvery is how many records land between checkpoint updates.
// Each checkpoint costs an fsync (the data must be durable before the
// checkpoint claims it is), and a process kill — the threat the journal
// defends against — loses no page-cache writes anyway, so the cadence
// only bounds loss on a whole-OS crash. 256 records keeps the fsync tax
// under the campaign engine's 1.10x overhead budget at ~1k runs/sec.
const CheckpointEvery = 256

// Line kinds.
const (
	KindHeader     = "header"
	KindPlan       = "plan"
	KindRun        = "run"
	KindQuarantine = "quarantine"
	// KindAssign is a fleet-dispatch provenance line: which worker a
	// chunk of job indices was handed to, and what became of it
	// (assigned, redispatched, speculated, drained locally). Assign
	// lines are informational — replay collects them for dtsreport's
	// triage view but they never affect resume, and they are excluded
	// from the record count the checkpoint sidecar cross-checks.
	KindAssign = "assign"
)

// Header is the first line of every journal: the full campaign
// configuration a resume needs to rebuild an identical runner, plus the
// supervisor policy (recorded so a resume can report what it is
// continuing, and so mismatched flags are detectable).
type Header struct {
	Kind    string `json:"kind"` // "header"
	Version int    `json:"version"`

	Workload      string `json:"workload"`
	Supervision   string `json:"supervision"`
	WatchdVersion int    `json:"watchdVersion,omitempty"`

	ServerUpTimeoutNS int64 `json:"serverUpTimeoutNS"`
	RunDeadlineNS     int64 `json:"runDeadlineNS"`
	Telemetry         bool  `json:"telemetry,omitempty"`
	TraceCapacity     int   `json:"traceCapacity,omitempty"`
	FreshBoot         bool  `json:"freshBoot,omitempty"`

	// ClusterNodes and ClusterRouting describe the simulated cluster
	// topology runs execute on (0/"" = classic single host). They ride
	// the header so shard workers and resumes rebuild identical
	// clusters.
	ClusterNodes   int    `json:"clusterNodes,omitempty"`
	ClusterRouting string `json:"clusterRouting,omitempty"`

	// Cohort and WorkloadTrace describe a generated-workload client:
	// Cohort is the canonical workloadgen spec string, WorkloadTrace the
	// schedule-trace file replayed as the client. At most one is set;
	// both empty means the workload's canned client. They ride the header
	// so shard workers and resumes rebuild the identical schedule.
	Cohort        string `json:"cohort,omitempty"`
	WorkloadTrace string `json:"workloadTrace,omitempty"`

	// FaultList is the source fault-list path. A non-empty value marks
	// an explicit spec list: dts -resume and replay.Build run the
	// journaled plan verbatim (the file itself is never reopened), where
	// an empty one regenerates the catalog plan.
	FaultList string `json:"faultList,omitempty"`

	WallDeadlineNS int64 `json:"wallDeadlineNS,omitempty"`
	MaxAttempts    int   `json:"maxAttempts,omitempty"`
	MaxQuarantined int   `json:"maxQuarantined,omitempty"`
	Chaos          bool  `json:"chaos,omitempty"`
}

// Plan is the second line: the ordered job list the campaign will
// execute, identified by spec key (probe jobs carry the "/probe"
// suffix), plus an fnv64a fingerprint of the same sequence. A resume
// rebuilds its own job list and must reproduce the fingerprint exactly
// before any journaled record is trusted.
type Plan struct {
	Kind        string   `json:"kind"` // "plan"
	Jobs        []string `json:"jobs"`
	Fingerprint string   `json:"fingerprint"`

	// Shard-assignment fields, set only on the wire when a coordinator
	// hands a plan slice to a shard worker (internal/shard); journal
	// files written by the campaign supervisor never carry them, so the
	// on-disk format is unchanged.
	//
	// Shard is the assignment's shard number; Index[i] is the global
	// job-list position of Jobs[i] (re-dispatched remainders are not
	// contiguous); Parallelism sizes the worker's run pool; HeartbeatNS
	// is the liveness beacon period the coordinator expects.
	Shard       int   `json:"shard,omitempty"`
	Index       []int `json:"index,omitempty"`
	Parallelism int   `json:"parallelism,omitempty"`
	HeartbeatNS int64 `json:"heartbeatNS,omitempty"`

	// ChaosKillAfter, when > 0, instructs the worker to SIGKILL itself
	// after writing that many records — the coordinator's
	// worker-failure drill (dts -chaos + DTS_SHARD_CHAOS_KILL). Set only
	// on a shard's first dispatch, so the respawned worker survives.
	ChaosKillAfter int `json:"chaosKillAfter,omitempty"`

	// ChaosHangAfter, when > 0, wedges the worker after that many
	// records: the run loop blocks forever while the heartbeat beacon
	// keeps ticking — the drill for the dispatcher's progress deadline
	// and speculative re-issue (dts -chaos + DTS_SHARD_CHAOS_HANG).
	ChaosHangAfter int `json:"chaosHangAfter,omitempty"`

	// ChaosSlowMS, when > 0, sleeps that many milliseconds before every
	// record — a deliberate straggler for the work-stealing benchmarks and
	// the CI fleet-chaos gate (dts -chaos + DTS_SHARD_CHAOS_SLOW).
	ChaosSlowMS int `json:"chaosSlowMS,omitempty"`
}

// Record is one run or quarantine line.
type Record struct {
	Kind     string `json:"kind"`
	Index    int    `json:"index"` // job-list position
	Key      string `json:"key"`   // FaultSpec.Key(), cross-checked on replay
	Attempts int    `json:"attempts,omitempty"`

	// Run payloads (kind "run").
	Result json.RawMessage `json:"result,omitempty"` // core.RunResult
	Tel    json.RawMessage `json:"tel,omitempty"`    // telemetry.Snapshot

	// Quarantine payloads (kind "quarantine").
	Fault   json.RawMessage `json:"fault,omitempty"` // inject.FaultSpec
	Reason  string          `json:"reason,omitempty"`
	Message string          `json:"message,omitempty"`
	Stack   string          `json:"stack,omitempty"`

	// Assign payloads (kind "assign"): the fleet dispatcher's
	// provenance trail. Worker is the slot number (-1 for the local
	// drainer), Event the chunk lifecycle step, Indices the global job
	// indices involved.
	Worker  int    `json:"worker,omitempty"`
	Event   string `json:"event,omitempty"`
	Indices []int  `json:"indices,omitempty"`
}

// Checkpoint is the atomic sidecar: a byte offset and record count known
// to end exactly on a record boundary.
type Checkpoint struct {
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// Writer appends records to a journal file. Safe for concurrent use by
// campaign workers; every line is emitted with a single Write call.
// Errors are sticky: after the first failure every call returns it.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int
	bytes   int64
	err     error
}

// Create starts a fresh journal at path, writing the header line.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal create: %w", err)
	}
	w := &Writer{f: f, path: path}
	h.Kind = KindHeader
	h.Version = Version
	if err := w.writeLine(h); err != nil {
		f.Close()
		return nil, err
	}
	// Reset the checkpoint sidecar: a stale one from a previous campaign
	// at the same path would out-claim this journal and turn an early
	// kill into a refused ("corrupt, not torn") resume.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal sync: %w", err)
	}
	if err := writeCheckpoint(path, Checkpoint{Records: 0, Bytes: w.bytes}); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append reopens an existing journal for appending after a replay,
// first truncating any torn tail: validBytes is Replayed.ValidBytes,
// the prefix replay verified record-complete.
func Append(path string, validBytes int64, records int) (*Writer, error) {
	if err := os.Truncate(path, validBytes); err != nil {
		return nil, fmt.Errorf("journal truncate torn tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal append: %w", err)
	}
	return &Writer{f: f, path: path, records: records, bytes: validBytes}, nil
}

// Path returns the journal file path.
func (w *Writer) Path() string { return w.path }

// Records returns how many run/quarantine records have been written
// (header and plan lines excluded).
func (w *Writer) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// writeLine marshals v and appends it as one newline-terminated line in
// a single Write call. Caller must NOT hold w.mu.
func (w *Writer) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal marshal: %w", err)
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(data); err != nil {
		w.err = fmt.Errorf("journal write: %w", err)
		return w.err
	}
	w.bytes += int64(len(data))
	return nil
}

// appendRecord writes one encoded, newline-terminated record line and
// maintains the checkpoint cycle.
func (w *Writer) appendRecord(data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(data); err != nil {
		w.err = fmt.Errorf("journal write: %w", err)
		return w.err
	}
	w.bytes += int64(len(data))
	w.records++
	if w.records%CheckpointEvery == 0 {
		// Checkpoint durability: the data must be on disk before the
		// checkpoint claims it is.
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal sync: %w", err)
			return w.err
		}
		if err := writeCheckpoint(w.path, Checkpoint{Records: w.records, Bytes: w.bytes}); err != nil {
			w.err = err
			return w.err
		}
	}
	return nil
}

// WritePlan appends the plan line.
func (w *Writer) WritePlan(jobs []string, fingerprint string) error {
	return w.writeLine(Plan{Kind: KindPlan, Jobs: jobs, Fingerprint: fingerprint})
}

// WriteRun appends one completed-run record, built by AppendRun.
func (w *Writer) WriteRun(index int, key string, attempts int, result, tel json.RawMessage) error {
	data, err := AppendRun(nil, index, key, attempts, result, tel)
	if err != nil {
		return fmt.Errorf("journal marshal: %w", err)
	}
	return w.appendRecord(data)
}

// AppendRun appends one newline-terminated run line to dst: exactly
// json.Marshal(Record{Kind: KindRun, Index: index, Key: key, Attempts:
// attempts, Result: result, Tel: tel}) plus "\n", or that call's error.
// Payloads that are already compact (jsonwire.Compact), as every
// payload json.Marshal or AppendSnapshotJSON writes is, are spliced in
// verbatim; any other payload sends the whole line through json.Marshal,
// which compacts and validates it.
func AppendRun(dst []byte, index int, key string, attempts int, result, tel json.RawMessage) ([]byte, error) {
	if (len(result) != 0 && !jsonwire.Compact(result)) || (len(tel) != 0 && !jsonwire.Compact(tel)) {
		data, err := json.Marshal(Record{
			Kind: KindRun, Index: index, Key: key, Attempts: attempts,
			Result: result, Tel: tel,
		})
		if err != nil {
			return dst, err
		}
		return append(append(dst, data...), '\n'), nil
	}
	dst = append(dst, `{"kind":"run","index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, `,"key":`...)
	dst = jsonwire.AppendString(dst, key)
	if attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(attempts), 10)
	}
	if len(result) != 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, result...)
	}
	if len(tel) != 0 {
		dst = append(dst, `,"tel":`...)
		dst = append(dst, tel...)
	}
	return append(dst, "}\n"...), nil
}

// WriteAssign appends one fleet-dispatch provenance line. It uses the
// plain line path, not the record path: assign lines carry no results,
// so they stay outside the record count the checkpoint sidecar
// cross-checks against replay.
func (w *Writer) WriteAssign(worker int, event string, indices []int) error {
	return w.writeLine(Record{Kind: KindAssign, Worker: worker, Event: event, Indices: indices})
}

// WriteQuarantine appends one quarantine record, built by
// AppendQuarantine.
func (w *Writer) WriteQuarantine(index int, key string, fault json.RawMessage, reason, message, stack string, attempts int) error {
	data, err := AppendQuarantine(nil, index, key, fault, reason, message, stack, attempts)
	if err != nil {
		return fmt.Errorf("journal marshal: %w", err)
	}
	return w.appendRecord(data)
}

// AppendQuarantine appends one newline-terminated quarantine line to
// dst: the line a journal records and a fleet worker streams.
func AppendQuarantine(dst []byte, index int, key string, fault json.RawMessage, reason, message, stack string, attempts int) ([]byte, error) {
	data, err := json.Marshal(Record{
		Kind: KindQuarantine, Index: index, Key: key, Attempts: attempts,
		Fault: fault, Reason: reason, Message: message, Stack: stack,
	})
	if err != nil {
		return dst, err
	}
	return append(append(dst, data...), '\n'), nil
}

// Sync flushes the file and writes a final checkpoint. Called on
// graceful completion and on interrupt.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal sync: %w", err)
		return w.err
	}
	if err := writeCheckpoint(w.path, Checkpoint{Records: w.records, Bytes: w.bytes}); err != nil {
		w.err = err
		return w.err
	}
	return nil
}

// Close closes the journal file (without an implicit Sync; call Sync
// first for a durable final checkpoint).
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if err != nil && w.err == nil {
		w.err = err
	}
	return err
}

// ckptPath is the checkpoint sidecar path for a journal.
func ckptPath(path string) string { return path + ".ckpt" }

// writeCheckpoint atomically replaces the checkpoint sidecar.
func writeCheckpoint(path string, c Checkpoint) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("checkpoint marshal: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".ckpt.tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(append(data, '\n'))
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint write: w=%v s=%v c=%v", werr, serr, cerr)
	}
	if err := os.Rename(tmpName, ckptPath(path)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint rename: %w", err)
	}
	return nil
}

// readCheckpoint loads the sidecar if present; (nil, nil) when absent.
func readCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(ckptPath(path))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint read: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(bytes.TrimSpace(data), &c); err != nil {
		return nil, fmt.Errorf("checkpoint parse: %w", err)
	}
	return &c, nil
}

// DispatchEvent is a replayed fleet-dispatch provenance line.
type DispatchEvent struct {
	Worker  int
	Event   string
	Indices []int
}

// Replayed is the parsed state of a journal: everything a resume needs.
type Replayed struct {
	Header Header
	Plan   *Plan
	// Runs and Quarantined hold the run and quarantine records by job
	// index.
	Runs        map[int]*Record
	Quarantined map[int]*Record
	// Dispatch holds the fleet coordinator's chunk-assignment trail, in
	// journal order (empty for supervised in-process campaigns).
	Dispatch []DispatchEvent
	// Torn reports that the final line was incomplete or unparsable and
	// was discarded. ValidBytes is the verified record-complete prefix
	// length — pass it to Append to truncate before continuing.
	Torn       bool
	ValidBytes int64
	Records    int
}

// Replay parses a journal, discarding a torn final line (the signature
// of a killed process) and rejecting corruption anywhere else. The
// checkpoint sidecar, when present, tightens the classification: a
// journal shorter than its last checkpoint is corrupt, not torn. Replay
// is the file-shaped use of the streaming reader the shard protocol
// reads live pipes with (Stream).
func Replay(path string) (*Replayed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal read: %w", err)
	}
	defer f.Close()
	rep := &Replayed{
		Runs:        make(map[int]*Record),
		Quarantined: make(map[int]*Record),
	}
	st := NewStream(f)
	for {
		line, err := st.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrTorn) {
			rep.Torn = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("journal %s: corrupt %v", path, err)
		}
		switch line.Kind {
		case KindHeader:
			if st.LineNo() != 1 {
				return nil, fmt.Errorf("journal %s: header on line %d", path, st.LineNo())
			}
			rep.Header = *line.Header
		case KindPlan:
			if rep.Plan != nil {
				return nil, fmt.Errorf("journal %s: duplicate plan on line %d", path, st.LineNo())
			}
			rep.Plan = line.Plan
		case KindRun:
			rep.Runs[line.Rec.Index] = line.Rec
			rep.Records++
		case KindQuarantine:
			rep.Quarantined[line.Rec.Index] = line.Rec
			rep.Records++
		case KindAssign:
			rec := line.Rec
			rep.Dispatch = append(rep.Dispatch, DispatchEvent{
				Worker: rec.Worker, Event: rec.Event, Indices: rec.Indices,
			})
		default:
			// Heartbeat/done/error lines live on shard streams only; in a
			// journal file they mean someone saved a raw worker stream.
			return nil, fmt.Errorf("journal %s: stray stream record %q on line %d", path, line.Kind, st.LineNo())
		}
	}
	rep.ValidBytes = st.Offset()
	if rep.Header.Kind != KindHeader {
		return nil, fmt.Errorf("journal %s: missing header", path)
	}
	if rep.Header.Version != Version {
		return nil, fmt.Errorf("journal %s: version %d, want %d", path, rep.Header.Version, Version)
	}
	if ckpt, err := readCheckpoint(path); err == nil && ckpt != nil {
		if rep.ValidBytes < ckpt.Bytes || rep.Records < ckpt.Records {
			return nil, fmt.Errorf("journal %s: shorter than checkpoint (%d/%d bytes, %d/%d records) — corrupt, not torn",
				path, rep.ValidBytes, ckpt.Bytes, rep.Records, ckpt.Records)
		}
	}
	return rep, nil
}
