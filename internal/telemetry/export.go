package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"ntdts/internal/jsonwire"
	"ntdts/internal/vclock"
)

// Set is an ordered collection of per-run recorders — one per campaign
// run, sweep cell, or probe — merged deterministically in run-index
// order. A nil entry means that run recorded nothing (e.g. a conformance
// cell the probe never reaches); its index is still occupied, so run
// numbering in exports is stable across worker counts and seeds.
type Set struct {
	Runs []*Recorder
}

// NewSet wraps recorders (nil entries allowed) in run-index order.
func NewSet(runs ...*Recorder) *Set { return &Set{Runs: runs} }

// Append adds one run's recorder (possibly nil) at the next index.
func (s *Set) Append(r *Recorder) { s.Runs = append(s.Runs, r) }

// Merge concatenates sets in argument order, preserving each set's
// run-index positions (nil placeholders included). This is the
// deterministic merge rule shared by experiment fan-out (argument order
// = canonical set order) and shard coordination (argument order =
// shard-index order): because every run owns its collector and keeps
// its position, the merged exports are byte-identical however the
// source sets were executed. Returns nil when no argument carried any
// telemetry (all nil sets), so callers can distinguish "telemetry off"
// from "empty".
func Merge(sets ...*Set) *Set {
	merged := NewSet()
	any := false
	for _, s := range sets {
		if s == nil {
			continue
		}
		any = true
		merged.Runs = append(merged.Runs, s.Runs...)
	}
	if !any {
		return nil
	}
	return merged
}

// Events reports the total number of retained trace events.
func (s *Set) Events() int {
	n := 0
	for _, r := range s.Runs {
		if r != nil {
			n += len(r.events) + r.nenc // decoded or kept: one term is zero
		}
	}
	return n
}

// Dropped reports the total number of ring-displaced events.
func (s *Set) Dropped() uint64 {
	var n uint64
	for _, r := range s.Runs {
		if r != nil {
			n += r.dropped
		}
	}
	return n
}

// TraceLine is one ingested trace record: the run index plus the event.
type TraceLine struct {
	Run   int
	Event Event
}

// jsonEvent is the JSONL wire form of one trace line, as ReadJSONL
// decodes it; appendJSONEvent writes these fields in this order.
type jsonEvent struct {
	Run  int    `json:"run"`
	At   int64  `json:"at"` // virtual nanoseconds since the run epoch
	PID  uint32 `json:"pid"`
	Kind string `json:"kind"`
	Name string `json:"name"`
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
}

// WriteJSONL streams the merged trace as one JSON object per line, runs
// in index order, events in emission order — byte-identical for any
// worker count that produced the recorders. A recorder's kept events go
// straight from their snapshot bytes to trace lines.
func (s *Set) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for run, r := range s.Runs {
		switch {
		case r == nil:
		case r.enc != nil:
			var err error
			rd := jsonwire.NewReader(r.enc)
			walkEvents(&rd, func(e walkedEvent) {
				if err == nil {
					_, err = bw.Write(e.appendJSONEvent(bw.AvailableBuffer(), run))
				}
			})
			if err != nil {
				return err
			}
		default:
			for _, e := range r.Events() {
				if _, err := bw.Write(appendJSONEvent(bw.AvailableBuffer(), run, e)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// appendJSONEvent appends one trace line: exactly json.Marshal of the
// jsonEvent, newline-terminated. Kind and Name are quoted by the quoter
// the run-record codecs share, so any name, control bytes and invalid
// UTF-8 included, yields valid JSON.
func appendJSONEvent(dst []byte, run int, e Event) []byte {
	dst = appendLineHead(dst, run, int64(e.At), e.PID)
	dst = jsonwire.AppendString(dst, e.Kind.String())
	dst = append(dst, `,"name":`...)
	dst = jsonwire.AppendString(dst, e.Name)
	return appendLineTail(dst, e.A, e.B)
}

// appendJSONEvent appends the trace line of a kept event: the line
// appendJSONEvent writes for the event it decodes to, since a kept
// event's kind and name need no escaping (walkedEvent.verbatim).
func (e *walkedEvent) appendJSONEvent(dst []byte, run int) []byte {
	dst = appendLineHead(dst, run, e.at, e.pid)
	dst = append(append(append(dst, '"'), e.kind...), `","name":"`...)
	dst = append(append(dst, e.name...), '"')
	return appendLineTail(dst, e.a, e.b)
}

// appendLineHead appends a trace line up to its kind's opening quote.
func appendLineHead(dst []byte, run int, at int64, pid uint32) []byte {
	dst = append(dst, `{"run":`...)
	dst = strconv.AppendInt(dst, int64(run), 10)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, at, 10)
	dst = append(dst, `,"pid":`...)
	dst = strconv.AppendUint(dst, uint64(pid), 10)
	return append(dst, `,"kind":`...)
}

// appendLineTail appends a trace line from the end of its name.
func appendLineTail(dst []byte, a, b uint64) []byte {
	dst = append(dst, `,"a":`...)
	dst = strconv.AppendUint(dst, a, 10)
	dst = append(dst, `,"b":`...)
	dst = strconv.AppendUint(dst, b, 10)
	return append(dst, "}\n"...)
}

// ReadJSONL parses a trace previously written by WriteJSONL. Unknown
// kinds parse to Kind 0 rather than failing, so newer traces stay
// readable by older readers.
func ReadJSONL(r io.Reader) ([]TraceLine, error) {
	var out []TraceLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal([]byte(line), &je); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", lineNo, err)
		}
		out = append(out, TraceLine{
			Run: je.Run,
			Event: Event{
				At:   vclock.Time(je.At),
				PID:  je.PID,
				Kind: kindFromString(je.Kind),
				Name: je.Name,
				A:    je.A,
				B:    je.B,
			},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergedCounters sums every run's counters. Keys are returned sorted so
// iteration is deterministic.
func (s *Set) MergedCounters() (names []string, values map[string]int64) {
	values = make(map[string]int64)
	for _, r := range s.Runs {
		if r == nil {
			continue
		}
		for name, v := range r.counters {
			values[name] += v
		}
	}
	names = make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, values
}

// MergedHists merges every run's histograms. Keys are returned sorted.
func (s *Set) MergedHists() (names []string, hists map[string]*Hist) {
	hists = make(map[string]*Hist)
	for _, r := range s.Runs {
		if r == nil {
			continue
		}
		for name, h := range r.hists {
			m := hists[name]
			if m == nil {
				m = newHist()
				hists[name] = m
			}
			m.merge(h)
		}
	}
	names = make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, hists
}

// MetricsText renders the merged metrics as a deterministic text table:
// sorted counters, then sorted histograms with their non-empty buckets.
// Two Sets produced from the same runs render byte-identically whatever
// the worker count that executed them.
func (s *Set) MetricsText() string {
	var b strings.Builder
	runs := 0
	for _, r := range s.Runs {
		if r != nil {
			runs++
		}
	}
	fmt.Fprintf(&b, "runs %d  events %d  dropped %d\n", runs, s.Events(), s.Dropped())

	names, counters := s.MergedCounters()
	if len(names) > 0 {
		b.WriteString("counters:\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-24s %d\n", name, counters[name])
		}
	}
	hnames, hists := s.MergedHists()
	if len(hnames) > 0 {
		b.WriteString("histograms (virtual time):\n")
		for _, name := range hnames {
			h := hists[name]
			fmt.Fprintf(&b, "  %-24s n=%d sum=%s%s\n", name, h.N, h.Sum, bucketText(h))
		}
	}
	return b.String()
}

// bucketText renders a histogram's non-empty buckets in bound order.
func bucketText(h *Hist) string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if i < len(histBuckets) {
			fmt.Fprintf(&b, " le%s=%d", compactDur(histBuckets[i]), c)
		} else {
			fmt.Fprintf(&b, " inf=%d", c)
		}
	}
	return b.String()
}

// compactDur renders bucket bounds without trailing zero units
// (time.Duration.String renders 2s as "2s" and 1.024s as "1.024s";
// both are stable, so the default formatting suffices).
func compactDur(d time.Duration) string { return d.String() }
