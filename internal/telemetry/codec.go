package telemetry

// The snapshot codec. Every run record a journal or a fleet worker
// writes carries one Snapshot, so its JSON form is written and read by
// hand: AppendSnapshotJSON writes exactly json.Marshal's bytes, and
// DecodeSnapshot reads those canonical bytes in one strict pass, leaving
// anything else to encoding/json. DecodeRecorder and DecodeTouchpoints
// take the same pass without storing the trace, and WriteJSONL walks a
// kept trace with the same event reader. TestSnapshotCodecFieldSet
// fails when a field is added to Snapshot, SnapshotEvent or Hist, which
// AppendSnapshotJSON and decodeCanonical must then learn.

import (
	"encoding/json"
	"slices"
	"strconv"
	"time"

	"ntdts/internal/jsonwire"
)

// AppendSnapshotJSON appends the JSON encoding of r.Snapshot() to dst:
// exactly the bytes json.Marshal(r.Snapshot()) returns, written straight
// from the recorder.
func (r *Recorder) AppendSnapshotJSON(dst []byte) []byte {
	dst = append(dst, `{"cap":`...)
	dst = strconv.AppendInt(dst, int64(r.cap), 10)
	if r.dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendUint(dst, r.dropped, 10)
	}
	if r.enc != nil {
		dst = append(dst, `,"events":[`...)
		dst = append(dst, r.enc...)
		dst = append(dst, ']')
	} else if n := len(r.events); n > 0 {
		dst = append(dst, `,"events":[`...)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &r.events[(r.start+i)%n] // emission order, as Events returns it
			dst = append(dst, `{"at":`...)
			dst = strconv.AppendInt(dst, int64(e.At), 10)
			dst = append(dst, `,"pid":`...)
			dst = strconv.AppendUint(dst, uint64(e.PID), 10)
			dst = append(dst, `,"kind":`...)
			dst = jsonwire.AppendString(dst, e.Kind.String())
			dst = append(dst, `,"name":`...)
			dst = jsonwire.AppendString(dst, e.Name)
			if e.A != 0 {
				dst = append(dst, `,"a":`...)
				dst = strconv.AppendUint(dst, e.A, 10)
			}
			if e.B != 0 {
				dst = append(dst, `,"b":`...)
				dst = strconv.AppendUint(dst, e.B, 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.counters) > 0 {
		dst = append(dst, `,"counters":{`...)
		for i, k := range sortedKeys(r.counters) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.AppendString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, r.counters[k], 10)
		}
		dst = append(dst, '}')
	}
	if len(r.hists) > 0 {
		dst = append(dst, `,"hists":{`...)
		for i, k := range sortedKeys(r.hists) {
			if i > 0 {
				dst = append(dst, ',')
			}
			h := r.hists[k]
			dst = jsonwire.AppendString(dst, k)
			dst = append(dst, `:{"Counts":`...)
			if len(h.Counts) == 0 {
				dst = append(dst, "null"...) // Snapshot copies an empty slice as nil
			} else {
				for j, c := range h.Counts {
					if j == 0 {
						dst = append(dst, '[')
					} else {
						dst = append(dst, ',')
					}
					dst = strconv.AppendUint(dst, c, 10)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, `,"N":`...)
			dst = strconv.AppendUint(dst, h.N, 10)
			dst = append(dst, `,"Sum":`...)
			dst = strconv.AppendInt(dst, int64(h.Sum), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// sortedKeys returns m's keys in the order encoding/json writes them.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// DecodeSnapshot sets *s to what json.Unmarshal(data, s) leaves in a
// zero Snapshot, and returns the error json.Unmarshal returns. The
// canonical bytes AppendSnapshotJSON writes are decoded in one strict
// pass; any other input goes to encoding/json.
func DecodeSnapshot(data []byte, s *Snapshot) error {
	*s = Snapshot{}
	if canonicalSnapshot(data, s) {
		return nil
	}
	*s = Snapshot{}
	return json.Unmarshal(data, s)
}

// canonicalSnapshot is DecodeSnapshot's strict pass: it decodes data
// into the zero *s and reports whether data was canonical.
func canonicalSnapshot(data []byte, s *Snapshot) bool {
	_, ok := decodeCanonical(data, s, nil, func(e walkedEvent) {
		s.Events = append(s.Events, SnapshotEvent{
			At: e.at, PID: e.pid, Kind: kindName(e.kind), Name: string(e.name), A: e.a, B: e.b,
		})
	})
	return ok
}

// DecodeRecorder returns a recorder equal to what DecodeSnapshot(data,
// &s) followed by s.Restore() returns, with DecodeSnapshot's error.
// Canonical bytes take one strict pass that decodes the scalars,
// counters and histograms and validates and counts the events, which
// the recorder keeps as the bytes of data they were read from (see
// Recorder), so data must not change afterwards. Input the pass
// declines, and events AppendSnapshotJSON would not write back as they
// are, go to DecodeSnapshot.
func DecodeRecorder(data []byte) (*Recorder, error) {
	var s Snapshot
	n, verbatim := 0, true
	events, ok := decodeCanonical(data, &s, nil, func(e walkedEvent) {
		n++
		verbatim = verbatim && e.verbatim()
	})
	if ok && verbatim {
		r := newRecorder(s.Cap, s.Counters, s.Hists)
		r.dropped, r.enc, r.nenc = s.Dropped, events, n
		return r, nil
	}
	var slow Snapshot
	if err := DecodeSnapshot(data, &slow); err != nil {
		return nil, err
	}
	return slow.Restore(), nil
}

// DecodeTouchpoints returns what DecodeSnapshot(data, &s) followed by
// s.Touchpoints() returns, with DecodeSnapshot's error. Canonical bytes
// take the same strict pass, which validates every event and histogram
// but stores none of them and no other counter; any other input goes to
// DecodeSnapshot.
func DecodeTouchpoints(data []byte) (Touchpoints, error) {
	var t Touchpoints
	if _, ok := decodeCanonical(data, &Snapshot{}, &t, nil); ok {
		return t, nil
	}
	var s Snapshot
	err := DecodeSnapshot(data, &s)
	return s.Touchpoints(), err
}

// decodeCanonical reads data in the canonical form in one strict pass
// and reports whether data was in it, returning the bytes of its events
// array between the brackets (nil when it has none). It decodes the
// scalars into the zero *s and hands each event to each (nil: none).
// With t nil it stores the counters and histograms in s; with t non-nil
// it stores no histogram and sets only the touchpoint counters, in the
// zero *t. On false, *s and *t hold partial garbage.
func decodeCanonical(data []byte, s *Snapshot, t *Touchpoints, each func(walkedEvent)) (events []byte, ok bool) {
	keep := t == nil
	rd := jsonwire.NewReader(data)
	rd.Expect(`{"cap":`)
	s.Cap = int(rd.Int(strconv.IntSize))
	if rd.Skip(`,"dropped":`) {
		s.Dropped = rd.Uint(64)
	}
	if rd.Skip(`,"events":[`) {
		start := rd.Offset()
		walkEvents(&rd, each)
		events = data[start:rd.Offset():rd.Offset()]
		rd.Expect("]")
	}
	if rd.Skip(`,"counters":{`) {
		if keep {
			s.Counters = make(map[string]int64)
		}
		for more := true; more; more = rd.Skip(",") {
			k := rd.String()
			rd.Expect(":")
			v := rd.Int(64)
			if keep {
				s.Counters[internName(k)] = v
			} else {
				t.set(k, v)
			}
		}
		rd.Expect("}")
	}
	if rd.Skip(`,"hists":{`) {
		if keep {
			s.Hists = make(map[string]*Hist)
		}
		for more := true; more; more = rd.Skip(",") {
			k := rd.String()
			var counts []uint64
			rd.Expect(`:{"Counts":`)
			if !rd.Skip("null") {
				rd.Expect("[")
				if keep {
					counts = make([]uint64, 0, len(histBuckets)+1)
				}
				for more := true; more; more = rd.Skip(",") {
					if c := rd.Uint(64); keep {
						counts = append(counts, c)
					}
				}
				rd.Expect("]")
			}
			rd.Expect(`,"N":`)
			n := rd.Uint(64)
			rd.Expect(`,"Sum":`)
			sum := time.Duration(rd.Int(64))
			rd.Expect("}")
			if keep {
				s.Hists[internName(k)] = &Hist{Counts: counts, N: n, Sum: sum}
			}
		}
		rd.Expect("}")
	}
	rd.Expect("}")
	return events, rd.Done()
}

// walkedEvent is one event as the canonical walker reads it. kind and
// name alias the input.
type walkedEvent struct {
	at         int64
	pid        uint32
	kind, name []byte
	a, b       uint64
	zeroAB     bool // an "a" or "b" written as 0, which AppendSnapshotJSON omits
}

// walkEvents reads canonical event objects at rd, separated by commas,
// up to the byte after the last one, and hands each to each (nil: none).
func walkEvents(rd *jsonwire.Reader, each func(walkedEvent)) {
	for more := true; more; more = rd.Skip(",") {
		var e walkedEvent
		rd.Expect(`{"at":`)
		e.at = rd.Int(64)
		rd.Expect(`,"pid":`)
		e.pid = uint32(rd.Uint(32))
		rd.Expect(`,"kind":`)
		e.kind = rd.String()
		rd.Expect(`,"name":`)
		e.name = rd.String()
		if rd.Skip(`,"a":`) {
			e.a = rd.Uint(64)
			e.zeroAB = e.a == 0
		}
		if rd.Skip(`,"b":`) {
			e.b = rd.Uint(64)
			e.zeroAB = e.zeroAB || e.b == 0
		}
		rd.Expect("}")
		if each != nil {
			each(e)
		}
	}
}

// verbatim reports whether the event's bytes are what AppendSnapshotJSON
// writes for the event they decode to: its kind is a Kind's String, its
// name needs no escaping, and neither "a" nor "b" is written as 0.
func (e *walkedEvent) verbatim() bool {
	_, known := kindByName[string(e.kind)]
	return known && !e.zeroAB && jsonwire.Verbatim(e.name)
}

// kindName returns the kind spelled by b, sharing the constant string
// when b names a known kind.
func kindName(b []byte) string {
	if k, ok := kindByName[string(b)]; ok {
		return k.String()
	}
	return string(b)
}

// knownNames holds the counter and histogram names the stack records,
// which internName shares as kindName shares kinds.
var knownNames = func() map[string]string {
	m := make(map[string]string)
	for _, n := range []string{
		CtrSchedQuanta, CtrSyscalls, CtrHandleNew, CtrHandleClose, CtrSpawn, CtrExit,
		CtrFaultArmed, CtrFaultActivated, CtrFaultInjected, CtrRunCompleted, CtrRunDeadline,
		CtrRunRestarts, CtrRunRetried, CtrSupRetry, CtrSupQuarantine, CtrTraceDropped,
		HistRunResponse, HistCellVTime, SpanRun, SpanProbe,
	} {
		m[n] = n
	}
	return m
}()

// internName returns the name spelled by b, sharing the constant string
// when b is a known counter or histogram name.
func internName(b []byte) string {
	if s, ok := knownNames[string(b)]; ok {
		return s
	}
	return string(b)
}
