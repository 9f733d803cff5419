package telemetry

// The snapshot codec. Every run record a journal or a fleet worker
// writes carries one Snapshot, so its JSON form is written and read by
// hand: AppendSnapshotJSON writes exactly json.Marshal's bytes, and
// DecodeRecorder reads those canonical bytes in one strict pass into a
// recorder that keeps the events encoded, leaving anything else to
// encoding/json. WriteJSONL walks a kept trace with the same event
// reader, and Relabel can rewrite one kept event as a patch over those
// bytes (patchKept, telemetry.go). TestSnapshotCodecFieldSet fails when a
// field is added to Snapshot, SnapshotEvent or Hist, which
// AppendSnapshotJSON and DecodeRecorder must then learn.

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
		dst = append(dst, r.enc[:r.patchAt]...) // all of enc when there is no patch
		dst = append(dst, r.patch...)
		dst = append(dst, r.enc[r.patchEnd:]...)
		dst = append(dst, ']')
	} else if n := len(r.events); n > 0 {
		dst = append(dst, `,"events":[`...)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendEvent(dst, &r.events[(r.start+i)%n]) // emission order, as Events returns it
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

// appendEvent appends e's SnapshotEvent as json.Marshal writes it.
func appendEvent(dst []byte, e *Event) []byte {
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

// DecodeRecorder returns a recorder equal to what json.Unmarshal(data,
// &s) followed by s.Restore() returns, with json.Unmarshal's error.
// The canonical bytes AppendSnapshotJSON writes take one strict pass
// that decodes the scalars, counters and histograms and validates and
// counts the events, which the recorder keeps as the bytes of data they
// were read from (see Recorder), so data must not change afterwards.
// Input the pass declines, and events AppendSnapshotJSON would not write
// back as they are (walkedEvent.verbatim), go to encoding/json.
func DecodeRecorder(data []byte) (*Recorder, error) {
	rd := jsonwire.NewReader(data)
	rd.Expect(`{"cap":`)
	capN := int(rd.Int(strconv.IntSize))
	var dropped uint64
	if rd.Skip(`,"dropped":`) {
		dropped = rd.Uint(64)
	}
	var events []byte
	n, verbatim := 0, true
	if rd.Skip(`,"events":[`) {
		start := rd.Offset()
		walkEvents(&rd, func(e walkedEvent) {
			n++
			verbatim = verbatim && e.verbatim()
		})
		events = data[start:rd.Offset():rd.Offset()]
		rd.Expect("]")
	}
	var counters map[string]int64
	if rd.Skip(`,"counters":{`) {
		counters = make(map[string]int64)
		for more := true; more; more = rd.Skip(",") {
			k := rd.String()
			rd.Expect(":")
			counters[internName(k)] = rd.Int(64)
		}
		rd.Expect("}")
	}
	var hists map[string]*Hist
	if rd.Skip(`,"hists":{`) {
		hists = make(map[string]*Hist)
		for more := true; more; more = rd.Skip(",") {
			k := rd.String()
			h := &Hist{}
			rd.Expect(`:{"Counts":`)
			if !rd.Skip("null") {
				rd.Expect("[")
				h.Counts = make([]uint64, 0, len(histBuckets)+1)
				for more := true; more; more = rd.Skip(",") {
					h.Counts = append(h.Counts, rd.Uint(64))
				}
				rd.Expect("]")
			}
			rd.Expect(`,"N":`)
			h.N = rd.Uint(64)
			rd.Expect(`,"Sum":`)
			h.Sum = time.Duration(rd.Int(64))
			rd.Expect("}")
			hists[internName(k)] = h
		}
		rd.Expect("}")
	}
	rd.Expect("}")
	if rd.Done() && verbatim {
		r := newRecorder(capN, counters, hists)
		r.dropped, r.enc, r.nenc = dropped, events, n
		return r, nil
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return s.Restore(), nil
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
// up to the byte after the last one, and hands each to each.
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
		each(e)
	}
}

// verbatim reports whether the event's bytes are what AppendSnapshotJSON
// writes for the event they decode to: its kind is a Kind's String, its
// name needs no escaping, and neither "a" nor "b" is written as 0.
func (e *walkedEvent) verbatim() bool {
	_, known := kindByName[string(e.kind)]
	return known && !e.zeroAB && jsonwire.Verbatim(e.name)
}

// knownNames holds the counter and histogram names the stack records,
// which internName shares.
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
