package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"ntdts/internal/jsonwire"
)

// FuzzDecodeLine: the one-decode record path returns exactly the Line
// and the error text that the probe-then-kind path returns for the same
// bytes.
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

// FuzzAppendRun: a run line built by AppendRun is exactly json.Marshal
// of the same Record plus a newline, or fails with json.Marshal's error,
// whatever the payloads hold; and the reader decodes it as the
// probe-then-kind path does.
func FuzzAppendRun(f *testing.F) {
	for _, seed := range []struct {
		result, tel string
	}{
		{`{"outcome":1,"responseSec":18.9}`, `{"cap":8,"events":[{"at":1,"pid":4,"kind":"exit","name":"w3svc"}]}`},
		{`{"outcome":1}`, ``},
		{``, ``},
		{`{"outcome": 1}`, " {\"cap\":8}\n"},
		{`{"name":"<a&b>"}`, `"\u2028"`},
		{"\"\u2028\"", `null`},
		{`{"outcome":1`, `{"cap":8}`},
		{`{"outcome":1}`, `nul`},
		{` `, `{}`},
	} {
		f.Add(3, "ReadFile/0/1/1", 0, []byte(seed.result), []byte(seed.tel))
	}
	f.Add(-1, "q\"<>&\x01\u2028\xff", 2, []byte(`[]`), []byte(`0`))
	f.Fuzz(func(t *testing.T, index int, key string, attempts int, result, tel []byte) {
		got, gotErr := AppendRun([]byte("prefix"), index, key, attempts, result, tel)
		want, wantErr := json.Marshal(Record{
			Kind: KindRun, Index: index, Key: key, Attempts: attempts, Result: result, Tel: tel,
		})
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("error %q, want %q", errText(gotErr), errText(wantErr))
		}
		if wantErr != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed AppendRun returned %q, want dst unchanged", got)
			}
			return
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
		spliced := (len(result) == 0 || jsonwire.Compact(result)) && (len(tel) == 0 || jsonwire.Compact(tel))
		if spliced && string(jsonwire.AppendString(nil, key)) == `"`+key+`"` && decodeRunLine(line) == nil {
			t.Fatalf("spliced line with a plain key missed the fast path: %s", line)
		}
	})
}
