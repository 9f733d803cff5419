package telemetry

import "ntdts/internal/vclock"

// Snapshot is the serializable state of one Recorder — what the results
// journal stores per completed run so a resumed campaign exports traces
// and metrics byte-identical to an uninterrupted one. A Restore of a
// Snapshot of a recorder yields a recorder whose Events(), counters and
// histograms render exactly as the original's.
type Snapshot struct {
	Cap     int             `json:"cap"`
	Dropped uint64          `json:"dropped,omitempty"`
	Events  []SnapshotEvent `json:"events,omitempty"`
	// Counters and Hists marshal with sorted keys (encoding/json), so
	// snapshot bytes are deterministic for a deterministic run.
	Counters map[string]int64 `json:"counters,omitempty"`
	Hists    map[string]*Hist `json:"hists,omitempty"`
}

// SnapshotEvent is the wire form of one trace event, mirroring the JSONL
// trace line fields (minus the run index, which the journal keys).
type SnapshotEvent struct {
	At   int64  `json:"at"`
	PID  uint32 `json:"pid"`
	Kind string `json:"kind"`
	Name string `json:"name"`
	A    uint64 `json:"a,omitempty"`
	B    uint64 `json:"b,omitempty"`
}

// Snapshot captures the recorder's full state with the event ring
// linearized into emission order. The run-record paths write its JSON
// with AppendSnapshotJSON instead; this is the reference that
// FuzzSnapshotCodec holds that encoder to.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Cap: r.cap, Dropped: r.dropped}
	for _, e := range r.Events() {
		s.Events = append(s.Events, SnapshotEvent{
			At: int64(e.At), PID: e.PID, Kind: e.Kind.String(), Name: e.Name, A: e.A, B: e.B,
		})
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]*Hist, len(r.hists))
		for k, h := range r.hists {
			c := &Hist{Counts: append([]uint64(nil), h.Counts...), N: h.N, Sum: h.Sum}
			s.Hists[k] = c
		}
	}
	return s
}

// Restore rebuilds a Recorder from a snapshot. The ring starts
// linearized (read position zero), which renders identically to the
// original ring in every export path. A null histogram, which only
// hand-written JSON holds, restores as an empty one.
func (s *Snapshot) Restore() *Recorder {
	r := NewRecorder(s.Cap)
	r.dropped = s.Dropped
	r.events = make([]Event, 0, len(s.Events))
	for _, e := range s.Events {
		r.events = append(r.events, Event{
			At: vclock.Time(e.At), PID: e.PID, Kind: kindFromString(e.Kind), Name: e.Name, A: e.A, B: e.B,
		})
	}
	for k, v := range s.Counters {
		r.counters[k] = v
	}
	for k, h := range s.Hists {
		c := &Hist{}
		if h != nil {
			c = &Hist{Counts: append([]uint64(nil), h.Counts...), N: h.N, Sum: h.Sum}
		}
		r.hists[k] = c
	}
	return r
}
