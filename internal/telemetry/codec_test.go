package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ntdts/internal/jsonwire"
	"ntdts/internal/vclock"
)

// FuzzSnapshotCodec builds a recorder from fuzzed operations (a ring of
// 1-8 events that wraps and drops, arbitrary names and keys, the
// touchpoint counters, negative times, unknown kinds, filled and empty
// histograms) and holds the codec to encoding/json: AppendSnapshotJSON
// writes json.Marshal(r.Snapshot()), and DecodeSnapshot, on those bytes
// and on arbitrary ones, leaves the value and returns the error
// json.Unmarshal does. DecodeTouchpoints, on the same bytes, returns the
// value and the error text of DecodeSnapshot followed by Touchpoints.
// Bytes whose strings need no escaping must decode on the fast path.
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
	} {
		f.Add(uint8(1), []byte{0}, "", "", int64(0), []byte(raw))
	}
	// The touchpoint counters: canonical, repeated, escaped, beside a
	// histogram, and in inputs encoding/json rejects part way through.
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
		checkDecode(t, got)
		checkDecode(t, raw)
		checkTouchpoints(t, got)
		checkTouchpoints(t, raw)
		if plain(name) && plain(key) {
			var s Snapshot
			if !decodeCanonical(got, &s, nil) {
				t.Fatalf("canonical bytes missed the fast path: %s", got)
			}
			if !decodeCanonical(got, nil, &Touchpoints{}) {
				t.Fatalf("canonical bytes missed the touchpoint fast path: %s", got)
			}
		}
	})
}

// checkTouchpoints holds DecodeTouchpoints to DecodeSnapshot followed by
// Touchpoints on data.
func checkTouchpoints(t *testing.T, data []byte) {
	t.Helper()
	var s Snapshot
	wantErr := DecodeSnapshot(data, &s)
	want := s.Touchpoints()
	got, gotErr := DecodeTouchpoints(data)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeTouchpoints(%q) error %q, want %q", data, errText(gotErr), errText(wantErr))
	}
	if got != want {
		t.Fatalf("DecodeTouchpoints(%q) = %+v, want %+v", data, got, want)
	}
}

// checkDecode holds DecodeSnapshot to json.Unmarshal on data.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want Snapshot
	gotErr := DecodeSnapshot(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DecodeSnapshot(%q) error %q, want %q", data, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSnapshot(%q)\n got %+v\nwant %+v", data, got, want)
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
// decodeCanonical (codec.go) before this list is updated.
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
			t.Errorf("%T fields changed: update AppendSnapshotJSON and decodeCanonical in codec.go, then this test\n got %s\nwant %s",
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
