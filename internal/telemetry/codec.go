package telemetry

// The snapshot codec. Every run record a journal or a fleet worker
// writes carries one Snapshot, so its JSON form is written and read by
// hand: AppendSnapshotJSON writes exactly json.Marshal's bytes, and
// DecodeSnapshot reads those canonical bytes in one strict pass, leaving
// anything else to encoding/json. DecodeTouchpoints takes the same pass
// without storing the trace. TestSnapshotCodecFieldSet fails when a
// field is added to Snapshot, SnapshotEvent or Hist, which
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
	if n := len(r.events); n > 0 {
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
	if decodeCanonical(data, s, nil) {
		return nil
	}
	*s = Snapshot{}
	return json.Unmarshal(data, s)
}

// DecodeTouchpoints returns what DecodeSnapshot(data, &s) followed by
// s.Touchpoints() returns, with DecodeSnapshot's error. Canonical bytes
// take the same strict pass, which validates every event and histogram
// but stores none of them and no other counter; any other input goes to
// DecodeSnapshot.
func DecodeTouchpoints(data []byte) (Touchpoints, error) {
	var t Touchpoints
	if decodeCanonical(data, nil, &t) {
		return t, nil
	}
	var s Snapshot
	err := DecodeSnapshot(data, &s)
	return s.Touchpoints(), err
}

// decodeCanonical reads data in the canonical form in one strict pass
// and reports whether data was in it. With s non-nil it decodes into the
// zero *s. With s nil it reads the same bytes, stores no event or
// histogram, and sets only the touchpoint counters, in the zero *t. On
// false, *s or *t holds partial garbage.
func decodeCanonical(data []byte, s *Snapshot, t *Touchpoints) bool {
	keep := s != nil
	if !keep {
		s = &Snapshot{} // the scalars land here
	}
	rd := jsonwire.NewReader(data)
	rd.Expect(`{"cap":`)
	s.Cap = int(rd.Int(strconv.IntSize))
	if rd.Skip(`,"dropped":`) {
		s.Dropped = rd.Uint(64)
	}
	if rd.Skip(`,"events":[`) {
		for more := true; more; more = rd.Skip(",") {
			var e SnapshotEvent
			rd.Expect(`{"at":`)
			e.At = rd.Int(64)
			rd.Expect(`,"pid":`)
			e.PID = uint32(rd.Uint(32))
			rd.Expect(`,"kind":`)
			kind := rd.String()
			rd.Expect(`,"name":`)
			name := rd.String()
			if rd.Skip(`,"a":`) {
				e.A = rd.Uint(64)
			}
			if rd.Skip(`,"b":`) {
				e.B = rd.Uint(64)
			}
			rd.Expect("}")
			if keep {
				e.Kind, e.Name = kindName(kind), string(name)
				s.Events = append(s.Events, e)
			}
		}
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
				s.Counters[string(k)] = v
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
				s.Hists[string(k)] = &Hist{Counts: counts, N: n, Sum: sum}
			}
		}
		rd.Expect("}")
	}
	rd.Expect("}")
	return rd.Done()
}

// kindName returns the kind spelled by b, sharing the constant string
// when b names a known kind.
func kindName(b []byte) string {
	for k := KindSyscall; k <= KindRunQuarantine; k++ {
		if s := k.String(); s == string(b) {
			return s
		}
	}
	return string(b)
}
