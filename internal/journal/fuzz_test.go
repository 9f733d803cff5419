package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"ntdts/internal/jsonwire"
)

// FuzzDecodeLine: the one-decode record path returns exactly the Line
// and the error text that the probe-then-kind path returns for the same
// bytes. Every run record either path returns holds strict payloads,
// AppendRun's precondition, so AppendRun writes the record back as
// json.Marshal would.
func FuzzDecodeLine(f *testing.F) {
	for _, seed := range []string{
		// One line of every kind.
		`{"kind":"header","version":1,"workload":"IIS","supervision":"none","serverUpTimeoutNS":1,"runDeadlineNS":2}`,
		`{"kind":"plan","jobs":["ReadFile/0/1/1","WriteFile/0/1/2/probe"],"fingerprint":"deadbeefdeadbeef"}`,
		`{"kind":"plan","jobs":["ReadFile/0/1/1"],"fingerprint":"fp","shard":2,"index":[7],"parallelism":1,"heartbeatNS":5}`,
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","attempts":2,"result":{"outcome":1},"tel":{"cap":8,"events":[{"at":1,"pid":4,"kind":"exit","name":"w3svc"}]}}`,
		`{"kind":"quarantine","index":4,"key":"b/1/1/2","fault":{"function":"b"},"reason":"panic","message":"boom","stack":"s\ntrace","attempts":3}`,
		`{"kind":"assign","worker":-1,"event":"drained","indices":[1,2,3]}`,
		`{"kind":"heartbeat","index":9}`,
		`{"kind":"done","index":12}`,
		`{"kind":"error","index":5,"message":"run failed"}`,
		// The lines the probe-then-kind path exists for.
		`{"kind":"run","index":"x","key":"k"}`,
		`{"kind":"run","attempts":1.5}`,
		`{"kind":"assign","indices":{}}`,
		`{"kind":7,"index":1}`,
		`{"kind":null,"index":1}`,
		`{"kind":"header","kind":"run","index":1}`,
		`{"kind":"run","kind":"header","version":1}`,
		`{"kind":"run","kind":"martian"}`,
		`{"KIND":"run","index":2}`,
		`{"Kind":"header","version":1}`,
		`{"kind":"martian","index":"x"}`,
		`{"kind":"martian"}`,
		`[1,2]`,
		`{"kind":"run","ind`,
		`{"kind":"run","result":{"outcome":1}`,
		`null`,
		``,
		// The edges of the run-line fast path (decodeRunLine).
		`{"kind":"run","index":0,"key":"AddAtomA/0/1/1","result":{"outcome":1},"tel":{"cap":8,"counters":{"proc.exit":1}}}`,
		`{"kind":"run","index":7,"key":"a/0/1/1","attempts":2,"result":{"outcome":1}}`,
		`{"kind":"run","index":7,"key":"a/0/1/1","result":{"outcome": 1}}`,
		`{"kind":"run","index":7,"key":"a\u002f0","result":{"outcome":1}}`,
		`{"kind":"run","index":7,"key":"a/0/1/1","result":null}`,
		`{"kind":"run","index":7,"key":"a/0/1/1","tel":{"cap":8},"result":{"outcome":1}}`,
		`{"kind":"run","index":7,"index":8,"key":"a/0/1/1","result":{"outcome":1}}`,
		`{"kind":"run","index":7,"key":"a/0/1/1","result":{"outcome":1}} `,
		// Run lines whose payloads are valid but not strict, which
		// decodeLineByKind rewrites.
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","result":{"outcome": 1},"tel": {"cap":8}` + "\n}",
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","result":{"name":"<a&b>"},"tel":"\u2028"}`,
		"{\"kind\":\"run\",\"index\":3,\"key\":\"ReadFile/0/1/1\",\"result\":\"\u2028\",\"tel\":null}",
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","result":{"outcome":1,"tel":{"cap":8}}`,
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","result":{"outcome":1},"tel":nul}`,
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","result": ,"tel":{}}`,
		`{"kind":"run","index":3,"key":"ReadFile/0/1/1","result":[1, 2],"tel":[[[[]]]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeLine(data)
		want, wantErr := decodeLineByKind(data)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("error %q, want %q", errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %+v, want %+v", got, want)
		}
		if got == nil || got.Kind != KindRun {
			return
		}
		r := got.Rec
		for _, p := range [][]byte{r.Result, r.Tel} {
			if len(p) != 0 && !jsonwire.Compact(p) {
				t.Fatalf("run record of %q holds a payload that is not strict: %q", data, p)
			}
		}
		line := AppendRun(nil, r.Index, r.Key, r.Attempts, r.Result, r.Tel)
		marshalled, err := json.Marshal(Record{Kind: KindRun, Index: r.Index, Key: r.Key, Attempts: r.Attempts, Result: r.Result, Tel: r.Tel})
		if err != nil {
			t.Fatal(err)
		}
		if want := append(marshalled, '\n'); !bytes.Equal(line, want) {
			t.Fatalf("AppendRun of the record of %q\n got %s\nwant %s", data, line, want)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzReplayTruncate cuts a journal at any byte offset past its header,
// as a writer killed mid-campaign would leave it. A cut inside a line
// replays torn; a cut on a line boundary replays clean; either way the
// replay holds exactly the complete lines before the cut, and no cut is
// a hard error.
func FuzzReplayTruncate(f *testing.F) {
	path := filepath.Join(f.TempDir(), "full.journal")
	w, err := Create(path, testHeader())
	if err != nil {
		f.Fatal(err)
	}
	hdr := testHeader()
	hdr.Kind, hdr.Version = KindHeader, Version
	jobs := []string{"a/0/1/1", "b/0/1/1", "c/0/1/1", "d/0/1/1", "e/0/1/1"}

	// Each step appends one line and applies its effect to the model of
	// what replaying the journal through that line yields.
	type step struct {
		write func() error
		apply func(*Replayed)
	}
	steps := []step{
		{func() error { return w.WritePlan(jobs, "fp") }, func(r *Replayed) {
			r.Plan = &Plan{Kind: KindPlan, Jobs: jobs, Fingerprint: "fp"}
		}},
		{func() error { return w.WriteAssign(1, "assigned", []int{0, 1, 2, 3, 4}) }, func(r *Replayed) {
			r.Dispatch = append(r.Dispatch, DispatchEvent{Worker: 1, Event: "assigned", Indices: []int{0, 1, 2, 3, 4}})
		}},
	}
	for i, key := range jobs {
		if i == 2 {
			fault := json.RawMessage(`{"function":"c"}`)
			steps = append(steps, step{
				func() error { return w.WriteQuarantine(i, key, fault, "panic", "boom", "stack", 3) },
				func(r *Replayed) {
					r.Quarantined[i] = &Record{Kind: KindQuarantine, Index: i, Key: key, Attempts: 3, Fault: fault, Reason: "panic", Message: "boom", Stack: "stack"}
					r.Records++
				},
			})
			continue
		}
		n := strconv.Itoa(i + 1)
		result := json.RawMessage(`{"outcome":` + n + `}`)
		tel := json.RawMessage(`{"cap":8,"events":[{"at":` + n + `,"pid":4,"kind":"exit","name":"w3svc"}],"counters":{"proc.exit":1}}`)
		steps = append(steps, step{
			func() error { return w.WriteRun(i, key, 1, result, tel) },
			func(r *Replayed) {
				r.Runs[i] = &Record{Kind: KindRun, Index: i, Key: key, Attempts: 1, Result: result, Tel: tel}
				r.Records++
			},
		})
	}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			f.Fatal(err)
		}
		return fi.Size()
	}
	hdrLen := size()
	ends := make([]int64, len(steps)) // ends[k]: file size once step k is written
	for k, s := range steps {
		if err := s.write(); err != nil {
			f.Fatal(err)
		}
		ends[k] = size()
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	if err := os.Remove(path + ".ckpt"); err != nil {
		f.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	// Seed the cut at every line boundary, one byte either side of it,
	// and mid-line.
	prev := hdrLen
	for _, end := range ends {
		for _, cut := range []int64{prev, prev + 1, (prev + end) / 2, end - 1} {
			f.Add(uint64(cut - hdrLen))
		}
		prev = end
	}
	f.Add(uint64(len(full)) - uint64(hdrLen))

	f.Fuzz(func(t *testing.T, off uint64) {
		cut := hdrLen + int64(off%uint64(int64(len(full))-hdrLen+1))
		want := &Replayed{
			Header:      hdr,
			Runs:        make(map[int]*Record),
			Quarantined: make(map[int]*Record),
			ValidBytes:  hdrLen,
		}
		for k, end := range ends {
			if end > cut {
				break
			}
			steps[k].apply(want)
			want.ValidBytes = end
		}
		want.Torn = want.ValidBytes != cut

		cp := filepath.Join(t.TempDir(), "cut.journal")
		if err := os.WriteFile(cp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Replay(cp)
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(full), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of %d:\n got %+v\nwant %+v", cut, len(full), got, want)
		}
	})
}

// FuzzAppendRun: a run line AppendRun builds from strict payloads, its
// precondition, is exactly json.Marshal of the same Record plus a
// newline, and the reader decodes it as the probe-then-kind path does,
// on the fast path whenever the key needs no escaping. Lines whose
// payloads are not strict are FuzzDecodeLine's seeds.
func FuzzAppendRun(f *testing.F) {
	for _, seed := range []struct {
		result, tel string
	}{
		{`{"outcome":1,"responseSec":18.9}`, `{"cap":8,"events":[{"at":1,"pid":4,"kind":"exit","name":"w3svc"}]}`},
		{`{"outcome":1}`, ``},
		{``, ``},
		// Strict payloads of every JSON kind, among them the strict forms
		// of the payloads FuzzDecodeLine's seeds rewrite.
		{`{"outcome":1}`, `{"cap":8}`},
		{`{"name":"\u003ca\u0026b\u003e"}`, `"\u2028"`},
		{`"\u2028"`, `null`},
		{`[1,2]`, `[[[[]]]]`},
		{"\"\xff\"", `{}`},
		{`-0.5e+7`, `true`},
	} {
		f.Add(3, "ReadFile/0/1/1", 0, []byte(seed.result), []byte(seed.tel))
	}
	f.Add(-1, "q\"<>&\x01\u2028\xff", 2, []byte(`[]`), []byte(`0`))
	f.Fuzz(func(t *testing.T, index int, key string, attempts int, result, tel []byte) {
		if len(result) != 0 && !jsonwire.Compact(result) || len(tel) != 0 && !jsonwire.Compact(tel) {
			return
		}
		got := AppendRun([]byte("prefix"), index, key, attempts, result, tel)
		want, err := json.Marshal(Record{
			Kind: KindRun, Index: index, Key: key, Attempts: attempts, Result: result, Tel: tel,
		})
		if err != nil {
			t.Fatalf("json.Marshal of strict payloads: %v", err)
		}
		if want = append([]byte("prefix"), append(want, '\n')...); !bytes.Equal(got, want) {
			t.Fatalf("line\n got %s\nwant %s", got, want)
		}
		line := got[len("prefix") : len(got)-1]
		gotLine, gotErr := decodeLine(line)
		wantLine, wantErr := decodeLineByKind(line)
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(gotLine, wantLine) {
			t.Fatalf("decodeLine(%s) = %+v, %v; want %+v, %v", line, gotLine, gotErr, wantLine, wantErr)
		}
		if string(jsonwire.AppendString(nil, key)) == `"`+key+`"` && decodeRunLine(line) == nil {
			t.Fatalf("line with a plain key missed the fast path: %s", line)
		}
	})
}

// FuzzReplayCorrupt damages a journal once, at a fuzzed offset: a byte
// overwritten, a newline inserted, or the file cut there, with or
// without its checkpoint sidecar. The journal holds a header, a plan,
// an assign line, run lines with and without a trace, and a quarantine.
// Replay must return what replayLineByLine returns for the same bytes:
// the same Replayed, payload bytes included, or the same error text.
func FuzzReplayCorrupt(f *testing.F) {
	path := filepath.Join(f.TempDir(), "full.journal")
	w, err := Create(path, testHeader())
	if err != nil {
		f.Fatal(err)
	}
	tel := json.RawMessage(`{"cap":8,"events":[{"at":1,"pid":4,"kind":"exit","name":"w3svc"}],"counters":{"proc.exit":1}}`)
	for _, write := range []func() error{
		func() error { return w.WritePlan([]string{"a/0/1/1", "b/0/1/1", "c/0/1/1", "d/0/1/1"}, "fp") },
		func() error { return w.WriteAssign(1, "assigned", []int{0, 1, 2, 3}) },
		func() error { return w.WriteRun(0, "a/0/1/1", 1, json.RawMessage(`{"outcome":1}`), tel) },
		func() error { return w.WriteRun(1, "b/0/1/1", 1, json.RawMessage(`{"outcome":2}`), nil) },
		func() error {
			return w.WriteQuarantine(2, "c/0/1/1", json.RawMessage(`{"function":"c"}`), "panic", "boom", "stack", 3)
		},
		func() error { return w.WriteRun(3, "d/0/1/1", 2, json.RawMessage(`{"outcome":3}`), tel) },
		w.Sync,
		w.Close,
	} {
		if err := write(); err != nil {
			f.Fatal(err)
		}
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	ckpt, err := os.ReadFile(path + ".ckpt")
	if err != nil {
		f.Fatal(err)
	}

	// Seed every kind of damage at the start, the middle and the newline
	// of every line, and at the end of the file.
	for start := 0; start < len(full); {
		end := start + bytes.IndexByte(full[start:], '\n') + 1
		for _, off := range []int{start, (start + end) / 2, end - 1} {
			for op := uint8(0); op < 3; op++ {
				f.Add(op, uint64(off), byte('X'), false)
				f.Add(op, uint64(off), byte('}'), true)
			}
		}
		start = end
	}
	f.Add(uint8(1), uint64(len(full)), byte(0), false)

	f.Fuzz(func(t *testing.T, op uint8, off uint64, b byte, withCkpt bool) {
		var data []byte
		switch op % 3 {
		case 0: // one byte overwritten
			data = bytes.Clone(full)
			data[off%uint64(len(full))] = b
		case 1: // a newline inserted
			i := off % uint64(len(full)+1)
			data = append(append(bytes.Clone(full[:i]), '\n'), full[i:]...)
		case 2: // the file cut
			data = bytes.Clone(full[:off%uint64(len(full)+1)])
		}
		p := filepath.Join(t.TempDir(), "damaged.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if withCkpt {
			if err := os.WriteFile(p+".ckpt", ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, gotErr := Replay(p)
		want, wantErr := replayLineByLine(p)
		damage := fmt.Sprintf("damage %d at %d of %d (checkpoint %v)", op%3, off, len(full), withCkpt)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: error %q, want %q", damage, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", damage, got, want)
		}
	})
}

// replayLineByLine is the reference FuzzReplayCorrupt holds Replay to:
// the journal read one line at a time through decodeLine, in file order.
// An unterminated final line is torn, a line that does not decode is
// torn when nothing follows it and corrupt otherwise, and the first
// line that fails to decode or to apply ends the read.
func replayLineByLine(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal read: %w", err)
	}
	rep := &Replayed{
		Runs:        make(map[int]*Record),
		Quarantined: make(map[int]*Record),
	}
	for n := 1; len(data) > 0; n++ {
		end := bytes.IndexByte(data, '\n')
		if end < 0 {
			rep.Torn = true
			break
		}
		line, err := decodeLine(data[:end])
		if err != nil {
			if end+1 == len(data) {
				rep.Torn = true
				break
			}
			return nil, fmt.Errorf("journal %s: corrupt line %d: %v", path, n, err)
		}
		switch line.Kind {
		case KindHeader:
			if n != 1 {
				return nil, fmt.Errorf("journal %s: header on line %d", path, n)
			}
			rep.Header = *line.Header
		case KindPlan:
			if rep.Plan != nil {
				return nil, fmt.Errorf("journal %s: duplicate plan on line %d", path, n)
			}
			rep.Plan = line.Plan
		case KindRun:
			rep.Runs[line.Rec.Index] = line.Rec
			rep.Records++
		case KindQuarantine:
			rep.Quarantined[line.Rec.Index] = line.Rec
			rep.Records++
		case KindAssign:
			rep.Dispatch = append(rep.Dispatch, DispatchEvent{
				Worker: line.Rec.Worker, Event: line.Rec.Event, Indices: line.Rec.Indices,
			})
		default:
			return nil, fmt.Errorf("journal %s: stray stream record %q on line %d", path, line.Kind, n)
		}
		rep.ValidBytes += int64(end + 1)
		data = data[end+1:]
	}
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
