// Package telemetry is the deterministic observability layer of the DTS
// reproduction: virtual-time-stamped event traces, counters and latency
// histograms collected per fault-injection run and merged in run-index
// order, so the exported artifacts are byte-identical across worker
// counts and seeds — the same guarantee the campaign engine gives for
// outcome data.
//
// Every run (one ntsim.Kernel lifetime) owns its own Recorder, so
// parallel campaign workers never contend on telemetry state. Within a
// run the kernel's cooperative scheduler serializes all emission: exactly
// one simulated process executes at a time, and harness code emits only
// between scheduling quanta.
//
// The disabled path is a zero-allocation no-op: Nop implements Collector
// with empty methods taking only scalar and string arguments, so a kernel
// without telemetry pays nothing per system call (proved by
// TestNopDispatchAllocs and pinned by BenchmarkCampaignTraced).
package telemetry

import (
	"bytes"
	"maps"
	"slices"
	"time"
	"unicode/utf8"

	"ntdts/internal/jsonwire"
	"ntdts/internal/vclock"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSyscall is one system-call dispatch: Name is the API function,
	// A the raw parameter count that crossed the dispatch boundary.
	KindSyscall Kind = iota + 1
	// KindSpawn is a process creation: Name is the image, A the parent PID.
	KindSpawn
	// KindExit is a process exit: Name is the image, A the exit code.
	KindExit
	// KindHandleNew is an object-manager handle creation: Name is the
	// object kind, A the handle value.
	KindHandleNew
	// KindHandleClose is a handle close: Name is the object kind, A the
	// handle value.
	KindHandleClose
	// KindFaultArmed marks the injector arming a fault specification:
	// Name is the fault spec in fault-list syntax.
	KindFaultArmed
	// KindFaultActivated marks the armed fault's target invocation being
	// reached: Name is the fault spec, A the call count at activation.
	KindFaultActivated
	// KindFaultInjected marks the corruption actually applied: Name is
	// the fault spec, A the parameter value before and B after corruption.
	KindFaultInjected
	// KindSpanBegin opens a named span (run phase, probe execution).
	KindSpanBegin
	// KindSpanEnd closes a span: A is the span duration in nanoseconds of
	// virtual time.
	KindSpanEnd
	// KindPhase is a point-in-time lifecycle marker (run phases, outcome
	// classification): Name is the phase label, A an optional argument.
	KindPhase
	// KindRunRetry marks the campaign supervisor recording abandoned
	// attempts of a run that eventually completed: Name is the fault spec,
	// A the number of retries that preceded the recorded attempt, B the
	// failure-reason code of the last abandoned attempt.
	KindRunRetry
	// KindRunQuarantine marks the supervisor giving up on a run after its
	// retry budget: Name is the fault spec, A the attempt count, B the
	// failure-reason code.
	KindRunQuarantine
)

// String names the kind the way exported trace lines spell it.
func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindSpawn:
		return "spawn"
	case KindExit:
		return "exit"
	case KindHandleNew:
		return "handle-new"
	case KindHandleClose:
		return "handle-close"
	case KindFaultArmed:
		return "fault-armed"
	case KindFaultActivated:
		return "fault-activated"
	case KindFaultInjected:
		return "fault-injected"
	case KindSpanBegin:
		return "span-begin"
	case KindSpanEnd:
		return "span-end"
	case KindPhase:
		return "phase"
	case KindRunRetry:
		return "run-retry"
	case KindRunQuarantine:
		return "run-quarantine"
	default:
		return "unknown"
	}
}

// kindByName maps each kind's String, "unknown" included, to the kind.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := Kind(0); k <= KindRunQuarantine; k++ {
		m[k.String()] = k
	}
	return m
}()

// kindFromString inverts String for trace ingestion.
func kindFromString(s string) Kind { return kindByName[s] }

// Counter and histogram names used across the stack. Centralized so the
// emitting packages and the report layer agree on spelling.
const (
	CtrSchedQuanta    = "sched.quanta"
	CtrSyscalls       = "syscall.dispatch"
	CtrHandleNew      = "handle.new"
	CtrHandleClose    = "handle.close"
	CtrSpawn          = "proc.spawn"
	CtrExit           = "proc.exit"
	CtrFaultArmed     = "fault.armed"
	CtrFaultActivated = "fault.activated"
	CtrFaultInjected  = "fault.injected"
	CtrRunCompleted   = "run.completed"
	CtrRunDeadline    = "run.deadline"
	CtrRunRestarts    = "run.restarts"
	CtrRunRetried     = "run.retried"
	CtrSupRetry       = "supervise.retry"
	CtrSupQuarantine  = "supervise.quarantined"
	CtrTraceDropped   = "trace.dropped"

	HistRunResponse = "run.response"
	HistCellVTime   = "cell.vtime"
	SpanRun         = "run"
	SpanProbe       = "probe"
)

// Event is one virtual-time-stamped trace record. At is exact (virtual
// nanoseconds since the run's epoch); PID 0 marks harness-level events
// emitted outside any simulated process.
type Event struct {
	At   vclock.Time
	PID  uint32
	Kind Kind
	Name string
	A, B uint64
}

// Collector receives telemetry. Implementations: Recorder (enabled) and
// Nop (disabled, zero-allocation). All methods take scalar and string
// arguments only, so the disabled path never boxes or allocates.
type Collector interface {
	// Enabled reports whether emission has any effect; callers may use it
	// to gate work (string formatting) that only feeds telemetry.
	Enabled() bool
	// Emit records one trace event.
	Emit(at vclock.Time, pid uint32, kind Kind, name string, a, b uint64)
	// Add increments a named counter.
	Add(counter string, delta int64)
	// Observe records a virtual-time duration in a named histogram.
	Observe(hist string, d time.Duration)
}

// Nop is the disabled collector: every method is an empty no-op. It is
// the kernel's default, and its dispatch path adds zero allocations
// (asserted by TestNopDispatchAllocs).
type Nop struct{}

// Enabled implements Collector.
func (Nop) Enabled() bool { return false }

// Emit implements Collector.
func (Nop) Emit(vclock.Time, uint32, Kind, string, uint64, uint64) {}

// Add implements Collector.
func (Nop) Add(string, int64) {}

// Observe implements Collector.
func (Nop) Observe(string, time.Duration) {}

// Options selects per-run telemetry collection. The zero value is
// disabled — runs pay nothing.
type Options struct {
	// Enabled turns collection on: each run gets its own Recorder.
	Enabled bool
	// TraceCap bounds the per-run event ring (<= 0: DefaultTraceCap).
	TraceCap int
}

// NewRecorder returns a fresh per-run Recorder, or nil when disabled.
func (o Options) NewRecorder() *Recorder {
	if !o.Enabled {
		return nil
	}
	return NewRecorder(o.TraceCap)
}

// DefaultTraceCap is the default ring-buffer capacity of a Recorder:
// enough for a whole probe run, bounded so a campaign of thousands of
// runs keeps a predictable footprint (~60 KB of events per run).
const DefaultTraceCap = 1024

// histBuckets are the histogram bucket upper bounds: power-of-two
// virtual milliseconds from 1 ms to ~131 s, plus +inf. Virtual-time
// latencies in the simulation live comfortably inside this range.
var histBuckets = func() []time.Duration {
	var b []time.Duration
	for d := time.Millisecond; d <= 1<<17*time.Millisecond; d *= 2 {
		b = append(b, d)
	}
	return b
}()

// Hist is a fixed-bucket virtual-time latency histogram.
type Hist struct {
	Counts []uint64 // len(histBuckets)+1; last bucket is +inf
	N      uint64
	Sum    time.Duration
}

func newHist() *Hist { return &Hist{Counts: make([]uint64, len(histBuckets)+1)} }

func (h *Hist) observe(d time.Duration) {
	i := 0
	for i < len(histBuckets) && d > histBuckets[i] {
		i++
	}
	h.Counts[i]++
	h.N++
	h.Sum += d
}

// merge folds other into h. Only hand-written JSON gives other more
// buckets than h; h grows to hold them.
func (h *Hist) merge(other *Hist) {
	if n := len(other.Counts) - len(h.Counts); n > 0 {
		h.Counts = append(h.Counts, make([]uint64, n)...)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.N += other.N
	h.Sum += other.Sum
}

// Recorder is the enabled Collector: a bounded ring-buffer event trace
// plus counters and histograms, for exactly one run. Not safe for
// concurrent use; the run's cooperative scheduler provides the required
// serialization.
//
// A recorder DecodeRecorder builds keeps its events encoded: the
// exports (AppendSnapshotJSON, and a Set's WriteJSONL, MetricsText,
// Events and Dropped) read them as they are, and Counter and Dropped
// read decoded values. Relabel may keep them too, as one patched event
// (see Relabel). Every other method but Clone decodes them into the
// ring first, once, so even a method that only reads may change how
// the recorder holds its events.
type Recorder struct {
	cap     int
	events  []Event
	start   int // ring read position once len(events) == cap
	dropped uint64

	// enc, when non-nil, holds the retained events as the canonical
	// snapshot bytes they were decoded from (the "events" array between
	// its brackets, in emission order), and nenc counts them. events is
	// then empty, and neither enc nor patch is ever written to. patch,
	// when non-nil, is one event's canonical bytes, which stand in for
	// the event at enc[patchAt:patchEnd]; with no patch both offsets
	// are 0.
	enc               []byte
	nenc              int
	patch             []byte
	patchAt, patchEnd int

	counters map[string]int64
	hists    map[string]*Hist
}

var _ Collector = (*Recorder)(nil)

// NewRecorder returns an enabled collector whose event trace keeps at
// most cap events (the newest win; the drop count is retained). cap <= 0
// selects DefaultTraceCap.
func NewRecorder(cap int) *Recorder { return newRecorder(cap, nil, nil) }

// newRecorder returns an empty recorder that owns counters and hists,
// making an empty map for a nil one.
func newRecorder(cap int, counters map[string]int64, hists map[string]*Hist) *Recorder {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	if counters == nil {
		counters = make(map[string]int64)
	}
	if hists == nil {
		hists = make(map[string]*Hist)
	}
	return &Recorder{cap: cap, counters: counters, hists: hists}
}

// decodeEvents moves kept events into the ring, linearized as Restore
// leaves it. It is small enough to inline into the emission methods,
// which a live recorder calls once per system call.
func (r *Recorder) decodeEvents() {
	if r.enc != nil {
		r.decodeKept()
	}
}

func (r *Recorder) decodeKept() {
	r.events = make([]Event, 0, r.nenc)
	r.walkKept(func(e walkedEvent) {
		r.events = append(r.events, Event{
			At: vclock.Time(e.at), PID: e.pid, Kind: kindByName[string(e.kind)], Name: string(e.name), A: e.a, B: e.b,
		})
	})
	r.enc, r.nenc, r.patch, r.patchAt, r.patchEnd = nil, 0, nil, 0, 0
}

// walkKept hands each kept event to each, in emission order, with the
// patch in place of the event it stands for.
func (r *Recorder) walkKept(each func(walkedEvent)) {
	runs := [3][]byte{r.enc}
	if r.patch != nil {
		// The events before and after the patched one, each run without
		// the comma that joined it to that event.
		before, after := r.enc[:r.patchAt], r.enc[r.patchEnd:]
		if len(before) > 0 {
			before = before[:len(before)-1]
		}
		if len(after) > 0 {
			after = after[1:]
		}
		runs = [3][]byte{before, r.patch, after}
	}
	for _, run := range runs {
		if len(run) > 0 {
			rd := jsonwire.NewReader(run)
			walkEvents(&rd, each)
		}
	}
}

// Enabled implements Collector.
func (r *Recorder) Enabled() bool { return true }

// Emit implements Collector: the event lands in the ring buffer,
// displacing the oldest event once the buffer is full.
func (r *Recorder) Emit(at vclock.Time, pid uint32, kind Kind, name string, a, b uint64) {
	r.decodeEvents()
	e := Event{At: at, PID: pid, Kind: kind, Name: name, A: a, B: b}
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start = (r.start + 1) % r.cap
	r.dropped++
}

// Add implements Collector.
func (r *Recorder) Add(counter string, delta int64) {
	r.decodeEvents()
	r.counters[counter] += delta
}

// Observe implements Collector.
func (r *Recorder) Observe(hist string, d time.Duration) {
	r.decodeEvents()
	h := r.hists[hist]
	if h == nil {
		h = newHist()
		r.hists[hist] = h
	}
	h.observe(d)
}

// Events returns the retained trace in emission order.
func (r *Recorder) Events() []Event {
	r.decodeEvents()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Dropped reports how many events the bounded ring displaced.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// LastTime returns the latest virtual timestamp in the retained trace
// (zero when the trace is empty). The campaign supervisor stamps its
// post-run provenance events with it, so per-PID timestamps stay monotone.
func (r *Recorder) LastTime() vclock.Time {
	r.decodeEvents()
	var max vclock.Time
	for _, e := range r.events {
		if e.At > max {
			max = e.At
		}
	}
	return max
}

// Counter returns the value of a named counter (0 when never touched).
func (r *Recorder) Counter(name string) int64 { return r.counters[name] }

// Clone returns a deep copy of r, ring position included: later
// emission into either recorder never shows in the other. Kept events
// stay kept in both, sharing bytes neither writes to, and the copy
// decodes them on its own first use. Clone only reads r: pool workers
// clone one shared dormant-run template at once.
func (r *Recorder) Clone() *Recorder {
	c := &Recorder{
		cap:      r.cap,
		events:   slices.Clone(r.events),
		start:    r.start,
		dropped:  r.dropped,
		enc:      r.enc,
		nenc:     r.nenc,
		patch:    r.patch,
		patchAt:  r.patchAt,
		patchEnd: r.patchEnd,
		counters: maps.Clone(r.counters),
		hists:    make(map[string]*Hist, len(r.hists)),
	}
	for k, h := range r.hists {
		c.hists[k] = &Hist{Counts: slices.Clone(h.Counts), N: h.N, Sum: h.Sum}
	}
	return c
}

// Relabel rewrites the name and arguments of every retained event of
// the given kind, leaving its time, PID and ring position as they were.
// A recorder that keeps its events encoded, and has no patch yet, keeps
// them when no event has the kind, and when exactly one has it and name
// needs no escaping: the rewritten event becomes its patch, and the
// bytes around it stay shared with every Clone. Otherwise it decodes
// them first.
func (r *Recorder) Relabel(kind Kind, name string, a, b uint64) {
	if r.enc != nil && r.patch == nil && r.patchKept(kind, name, a, b) {
		return
	}
	r.decodeEvents()
	for i := range r.events {
		if e := &r.events[i]; e.Kind == kind {
			e.Name, e.A, e.B = name, a, b
		}
	}
}

// kindFields[k] is how a kept event of kind k spells its kind field.
var kindFields = func() (t [KindRunQuarantine + 1][]byte) {
	for k := range t {
		t[k] = []byte(`"kind":"` + Kind(k).String() + `"`)
	}
	return t
}()

// patchKept is Relabel on kept events without decoding them: it records
// the patch and reports true, or reports false when Relabel must decode
// them instead. Kept events are canonical and no string in them holds
// a '"' (walkedEvent.verbatim), so a kind field's bytes occur only in
// an event of that kind, and the rest of the event is found by byte
// search.
func (r *Recorder) patchKept(kind Kind, name string, a, b uint64) bool {
	if int(kind) >= len(kindFields) {
		return true // a kind no kept event holds: nothing to rewrite
	}
	field := kindFields[kind]
	i := bytes.Index(r.enc, field)
	if i < 0 {
		return true
	}
	nameAt := i + len(field) + len(`,"name":"`)
	if bytes.Index(r.enc[nameAt:], field) >= 0 || !utf8.ValidString(name) || !jsonwire.Verbatim(name) {
		return false // two events to rewrite, or a name a kept event cannot hold
	}
	start := bytes.LastIndexByte(r.enc[:i], '{')
	rd := jsonwire.NewReader(r.enc[start:i])
	rd.Expect(`{"at":`)
	at := rd.Int(64)
	rd.Expect(`,"pid":`)
	pid := rd.Uint(32)
	nameEnd := nameAt + bytes.IndexByte(r.enc[nameAt:], '"')
	e := Event{At: vclock.Time(at), PID: uint32(pid), Kind: kind, Name: name, A: a, B: b}
	r.patch = appendEvent(make([]byte, 0, 128+len(name)), &e) // room for any event with this name
	r.patchAt, r.patchEnd = start, nameEnd+bytes.IndexByte(r.enc[nameEnd:], '}')+1
	return true
}

// Span is an open interval of virtual time bracketed by a begin/end event
// pair, with the duration recorded in the histogram named after the span.
type Span struct {
	c     Collector
	name  string
	pid   uint32
	begin vclock.Time
}

// StartSpan opens a span on c. On a disabled collector the span is free.
func StartSpan(c Collector, at vclock.Time, pid uint32, name string) Span {
	c.Emit(at, pid, KindSpanBegin, name, 0, 0)
	return Span{c: c, name: name, pid: pid, begin: at}
}

// End closes the span at the given virtual instant.
func (s Span) End(at vclock.Time) {
	d := at.Sub(s.begin)
	s.c.Emit(at, s.pid, KindSpanEnd, s.name, uint64(d), 0)
	s.c.Observe(s.name, d)
}
