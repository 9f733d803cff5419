package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ntdts/internal/jsonwire"
	"ntdts/internal/vclock"
)

// FuzzSnapshotCodec builds a recorder from fuzzed operations (a ring of
// 1-8 events that wraps and drops, arbitrary names and keys, the
// restart, retry and quarantine counters, negative times, unknown
// kinds, filled and empty histograms) and holds the codec to
// encoding/json: AppendSnapshotJSON writes json.Marshal(r.Snapshot()),
// which is strict (jsonwire.Compact), and DecodeRecorder, on those bytes
// and on arbitrary ones, returns the error text and a recorder that
// exports, reads and changes as json.Unmarshal followed by Restore does
// (checkRecorder), Relabel included. Bytes whose strings need no
// escaping must decode on the fast path, which keeps their events
// encoded.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x70}, "GetTickCount", "proc.exit", int64(5), []byte(`{"cap":8}`))
	f.Add(uint8(0), []byte("a ring that wraps past its cap"), "q\"<>&\x01\t\u2028\xff", "k\\\u2029/", int64(-1<<40),
		[]byte(`{"cap":8,"events":[{"at":-1,"pid":4,"kind":"exit","name":"w3svc"}],"counters":{"a":1},"hists":{"h":{"Counts":null,"N":0,"Sum":0}}}`))
	for _, raw := range []string{
		`{"cap":1,"dropped":0,"events":[],"counters":{},"hists":{}}`,
		`{"cap":1,"hists":{"h":null}}`,
		`{"cap":1,"hists":{"h":{"Counts":[],"N":1,"Sum":-1}}}`,
		`{"cap":-0}`, `{"cap":1.5}`, `{"CAP":2}`, `{"cap":2} `, `{"cap":99999999999999999999}`,
		`{"cap":1,"events":[{"at":1,"pid":4294967296,"kind":"x","name":"y"}]}`,
		`{"cap":1,"counters":{"a":1,"a":2}}`, `{"cap":1,"events":null}`, `[]`, `null`, ``,
		// More buckets than a histogram has, which MetricsText must merge.
		`{"cap":1,"hists":{"h":{"Counts":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"N":20,"Sum":1}}}`,
	} {
		f.Add(uint8(1), []byte{0}, "", "", int64(0), []byte(raw))
	}
	// The restart, retry and quarantine counters: canonical, repeated,
	// escaped, beside a histogram, and in inputs encoding/json rejects
	// part way through.
	for _, raw := range []string{
		`{"cap":1,"counters":{"run.restarts":2,"supervise.quarantined":1,"supervise.retry":3}}`,
		`{"cap":1,"counters":{"supervise.retry":1,"supervise.retry":2}}`,
		`{"cap":1,"counters":{"run\u002erestarts":4}}`,
		`{"cap":1,"counters":{"run.restarts":4},"hists":{"h":{"Counts":[1,2],"N":3,"Sum":4}}}`,
		`{"cap":1,"counters":{"run.restarts":4,"supervise.retry":"x"}}`,
		`{"cap":1,"counters":{"run.restarts":4}}x`,
		`{"cap":-0,"counters":{"supervise.quarantined":1}}`,
	} {
		f.Add(uint8(1), []byte{0}, "", "", int64(0), []byte(raw))
	}
	// Relabel on a kept recorder: capN>>4 is the relabelled kind, here
	// fault-armed, which op 0x64 emits and op 0x10 does not.
	for _, c := range []struct {
		capN uint8
		ops  []byte
		name string
	}{
		{0x60, []byte{0x64}, "ReadFile 1 1 flip"},                   // the only event
		{0x67, []byte{0x64, 0x10, 0x10}, "ReadFile 1 1 flip"},       // the first
		{0x67, []byte{0x10, 0x10, 0x64}, "ReadFile 1 1 flip"},       // the last
		{0x62, []byte{0x10, 0x10, 0x64, 0x10}, "ReadFile 1 1 flip"}, // a wrapped ring keeps it
		{0x61, []byte{0x64, 0x10, 0x10, 0x10}, "ReadFile 1 1 flip"}, // a wrapped ring dropped it
		{0x67, []byte{0x64, 0x10, 0x64}, "ReadFile 1 1 flip"},       // two match
		{0x67, []byte{0x64, 0x10, 0xB0}, "ReadFile 1 1 flip"},       // one, and one phase event
		{0x67, []byte{0x10, 0x64, 0x10}, "a<b\"c\u2028"},            // a name that needs escaping
		{0x67, []byte{0x10, 0x64, 0x10}, "ReadFile\xff"},            // a name that is not UTF-8
		{0x67, []byte{0x10, 0x64, 0x10}, ""},                        // an empty name
		{0xF7, []byte{0x10, 0xF0, 0x10}, "x"},                       // a kind no decoded event holds
		{0x07, []byte{0x10, 0xF0, 0x10}, "x"},                       // kind 0, which that event decodes to
	} {
		f.Add(c.capN, c.ops, c.name, "k", int64(9), []byte(`{"cap":8}`))
	}
	f.Fuzz(func(t *testing.T, capN uint8, ops []byte, name, key string, at int64, raw []byte) {
		r := NewRecorder(int(capN%8) + 1)
		names := []string{name, key, name + key, "", CtrRunRestarts, CtrSupRetry, CtrSupQuarantine}
		var empty []string
		for i, op := range ops {
			nm := names[int(op>>2)%len(names)]
			switch op % 4 {
			case 0:
				r.Emit(vclock.Time(at-int64(i)*int64(op)), uint32(op)*uint32(i), Kind(op>>4), nm, uint64(op)<<uint(i%64), uint64(i))
			case 1:
				r.Add(nm, int64(op)-128)
			case 2:
				r.Observe(nm, time.Duration(at+int64(op)))
			case 3:
				empty = append(empty, nm)
			}
		}
		for _, nm := range empty {
			r.hists[nm] = &Hist{} // an empty histogram, as Restore leaves one
		}
		want, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got := r.AppendSnapshotJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendSnapshotJSON\n got %s\nwant %s", got, want)
		}
		if !jsonwire.Compact(got) {
			t.Fatalf("AppendSnapshotJSON wrote bytes that are not strict: %s", got)
		}
		ev := Event{At: vclock.Time(at), PID: uint32(capN), Kind: Kind(capN >> 4), Name: name, A: uint64(len(ops)), B: 1}
		checkRecorder(t, got, ev, key)
		checkRecorder(t, raw, ev, key)
		if plain(name) && plain(key) {
			if d, err := DecodeRecorder(got); err != nil || len(r.events) > 0 && d.enc == nil {
				t.Fatalf("DecodeRecorder did not keep the events of %s (error %v)", got, err)
			}
		}
	})
}

// checkRecorder holds DecodeRecorder to json.Unmarshal followed by
// Restore on data: the same error text, and recorders that match on
// every export and read (sameRecorder), first as decoded, then after an
// Emit of ev, an Add to key, a Clone (and an Emit into the clone, which
// must leave the original as it was), or a Relabel of ev's kind: alone,
// twice, beside a Relabel of another kind, followed by an Emit, and of
// a Clone, which must leave the original as it was too. A Relabel that
// matches one kept event and names it plainly must keep the events
// encoded, as a patch.
func checkRecorder(t *testing.T, data []byte, ev Event, key string) {
	t.Helper()
	var s Snapshot
	wantErr := json.Unmarshal(data, &s)
	_, gotErr := DecodeRecorder(data)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeRecorder(%q) error %q, want %q", data, errText(gotErr), errText(wantErr))
	}
	if wantErr != nil {
		return
	}
	for _, c := range []struct {
		op     string
		change func(r *Recorder) *Recorder
	}{
		{"decode", func(r *Recorder) *Recorder { return r }},
		{"Emit", func(r *Recorder) *Recorder { r.Emit(ev.At, ev.PID, ev.Kind, ev.Name, ev.A, ev.B); return r }},
		{"Add", func(r *Recorder) *Recorder { r.Add(key, 3); return r }},
		{"Emit into a Clone", func(r *Recorder) *Recorder {
			c := r.Clone()
			c.Emit(ev.At, ev.PID, ev.Kind, ev.Name, ev.A, ev.B)
			return r
		}},
		{"Clone", func(r *Recorder) *Recorder { return r.Clone() }},
		{"Relabel", func(r *Recorder) *Recorder { r.Relabel(ev.Kind, ev.Name, ev.A, ev.B); return r }},
		{"Relabel twice", func(r *Recorder) *Recorder {
			r.Relabel(ev.Kind, ev.Name, ev.A, ev.B)
			r.Relabel(ev.Kind, key, ev.B, 0)
			return r
		}},
		{"Relabel two kinds", func(r *Recorder) *Recorder {
			r.Relabel(ev.Kind, ev.Name, ev.A, ev.B)
			r.Relabel(KindPhase, key, ev.B, 0)
			return r
		}},
		{"Relabel, then Emit", func(r *Recorder) *Recorder {
			r.Relabel(ev.Kind, ev.Name, ev.A, ev.B)
			r.Emit(ev.At, ev.PID, ev.Kind, key, ev.A, ev.B)
			return r
		}},
		{"Relabel a Clone", func(r *Recorder) *Recorder {
			r.Clone().Relabel(ev.Kind, ev.Name, ev.A, ev.B)
			return r
		}},
		{"Clone, then Relabel", func(r *Recorder) *Recorder {
			c := r.Clone()
			c.Relabel(ev.Kind, ev.Name, ev.A, ev.B)
			return c
		}},
	} {
		got, err := DecodeRecorder(data)
		if err != nil {
			t.Fatal(err)
		}
		sameRecorder(t, fmt.Sprintf("%s of %q", c.op, data), c.change(got), c.change(s.Restore()), key)
	}

	kept, _ := DecodeRecorder(data)
	matches := 0
	for _, e := range s.Restore().Events() {
		if e.Kind == ev.Kind {
			matches++
		}
	}
	if kept.enc != nil && matches == 1 && plain(ev.Name) {
		if kept.Relabel(ev.Kind, ev.Name, ev.A, ev.B); kept.enc == nil || kept.patch == nil {
			t.Fatalf("Relabel of the one %v event of %q decoded the kept events", ev.Kind, data)
		}
	}
}

// sameRecorder compares got with want on every export and read. The
// exports and the reads that leave kept events encoded come first, so
// they see got as decoded; LastTime, Events and Snapshot decode them,
// and the exports are compared again after.
func sameRecorder(t *testing.T, what string, got, want *Recorder, key string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		if g, w := got.AppendSnapshotJSON(nil), want.AppendSnapshotJSON(nil); !bytes.Equal(g, w) {
			t.Fatalf("%s: AppendSnapshotJSON\n got %s\nwant %s", what, g, w)
		} else if !jsonwire.Compact(g) {
			t.Fatalf("%s: AppendSnapshotJSON wrote bytes that are not strict: %s", what, g)
		}
		var g, w bytes.Buffer
		if err := NewSet(got).WriteJSONL(&g); err != nil {
			t.Fatal(err)
		}
		if err := NewSet(want).WriteJSONL(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: WriteJSONL\n got %s\nwant %s", what, g.Bytes(), w.Bytes())
		}
		gs, ws := NewSet(got), NewSet(want)
		if g, w := gs.MetricsText(), ws.MetricsText(); g != w {
			t.Fatalf("%s: MetricsText\n got %s\nwant %s", what, g, w)
		}
		if gs.Events() != ws.Events() || gs.Dropped() != ws.Dropped() {
			t.Fatalf("%s: Set.Events, Dropped = %d, %d, want %d, %d", what, gs.Events(), gs.Dropped(), ws.Events(), ws.Dropped())
		}
		for _, k := range []string{key, CtrRunRestarts, CtrSupRetry} {
			if got.Counter(k) != want.Counter(k) {
				t.Fatalf("%s: Counter(%q) = %d, want %d", what, k, got.Counter(k), want.Counter(k))
			}
		}
		if got.LastTime() != want.LastTime() {
			t.Fatalf("%s: LastTime = %d, want %d", what, got.LastTime(), want.LastTime())
		}
		if g, w := got.Events(), want.Events(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Events\n got %+v\nwant %+v", what, g, w)
		}
		if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Snapshot\n got %+v\nwant %+v", what, g, w)
		}
	}
}

// plain reports whether s is quoted without escapes, so that the fast
// decoder reads it back.
func plain(s string) bool {
	return string(jsonwire.AppendString(nil, s)) == `"`+s+`"`
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestSnapshotCodecFieldSet pins the JSON shape the hand-written codec
// knows. A new or changed field must be taught to AppendSnapshotJSON and
// DecodeRecorder (codec.go) before this list is updated.
func TestSnapshotCodecFieldSet(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{Snapshot{}, "cap int; dropped,omitempty uint64; events,omitempty []telemetry.SnapshotEvent; " +
			"counters,omitempty map[string]int64; hists,omitempty map[string]*telemetry.Hist"},
		{SnapshotEvent{}, "at int64; pid uint32; kind string; name string; a,omitempty uint64; b,omitempty uint64"},
		{Hist{}, "Counts []uint64; N uint64; Sum time.Duration"},
	} {
		if got := jsonFields(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("%T fields changed: update AppendSnapshotJSON and DecodeRecorder in codec.go, then this test\n got %s\nwant %s",
				c.v, got, c.want)
		}
	}
}

// jsonFields lists a struct's fields as encoding/json sees them: the
// json tag (or the field name) and the Go type.
func jsonFields(t reflect.Type) string {
	var fields []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" {
			tag = f.Name
		}
		fields = append(fields, tag+" "+f.Type.String())
	}
	return strings.Join(fields, "; ")
}
