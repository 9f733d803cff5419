package journal

import (
	"errors"
	"io"
	"strings"
	"testing"
)

const streamLines = `{"kind":"header","version":1,"workload":"IIS","supervision":"none","serverUpTimeoutNS":1,"runDeadlineNS":2}
{"kind":"run","index":0,"key":"ReadFile/0/1/zero","result":{}}
{"kind":"heartbeat","index":1}
{"kind":"done","index":1}
`

func TestStreamReadsAllKinds(t *testing.T) {
	st := NewStream(strings.NewReader(streamLines))
	kinds := []string{KindHeader, KindRun, KindHeartbeat, KindDone}
	for i, want := range kinds {
		l, err := st.Next()
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if l.Kind != want {
			t.Fatalf("line %d kind = %q, want %q", i+1, l.Kind, want)
		}
		switch want {
		case KindHeader:
			if l.Header == nil || l.Header.Workload != "IIS" {
				t.Fatalf("header not decoded: %+v", l.Header)
			}
		default:
			if l.Rec == nil {
				t.Fatalf("record not decoded for %q", want)
			}
		}
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("after last line: %v, want io.EOF", err)
	}
}

func TestStreamTornTail(t *testing.T) {
	cases := map[string]string{
		"unterminated":      streamLines + `{"kind":"run","ind`,
		"terminated-garble": streamLines + "{\"kind\":\"run\",\"ind\n",
	}
	for name, data := range cases {
		st := NewStream(strings.NewReader(data))
		var err error
		n := 0
		for err == nil {
			_, err = st.Next()
			if err == nil {
				n++
			}
		}
		if !errors.Is(err, ErrTorn) {
			t.Errorf("%s: error %v, want ErrTorn", name, err)
		}
		if n != 4 {
			t.Errorf("%s: %d whole lines decoded, want 4", name, n)
		}
	}
}

func TestStreamMidStreamGarbageIsHardError(t *testing.T) {
	data := strings.Replace(streamLines, `{"kind":"heartbeat","index":1}`, "not json at all", 1)
	st := NewStream(strings.NewReader(data))
	var err error
	for err == nil {
		_, err = st.Next()
	}
	if errors.Is(err, ErrTorn) || err == io.EOF {
		t.Fatalf("mid-stream garbage classified as %v, want a hard error", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v does not name the corrupt line", err)
	}
}

func TestStreamUnknownKind(t *testing.T) {
	st := NewStream(strings.NewReader(`{"kind":"martian"}` + "\n\n"))
	_, err := st.Next()
	if err == nil || !strings.Contains(err.Error(), "martian") {
		t.Fatalf("unknown kind error = %v", err)
	}
}

// TestStreamLivePipe is the shard-protocol use: Next blocks on a pipe
// until the writer produces a full line, decodes it, and sees EOF only
// when the writer closes.
func TestStreamLivePipe(t *testing.T) {
	r, w := io.Pipe()
	go func() {
		for _, line := range strings.SplitAfter(streamLines, "\n") {
			if line == "" {
				continue
			}
			// Two writes per line proves Next waits for the newline.
			io.WriteString(w, line[:3])
			io.WriteString(w, line[3:])
		}
		w.Close()
	}()
	st := NewStream(r)
	n := 0
	for {
		_, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("%d lines from pipe, want 4", n)
	}
}

// TestStreamWriterDiesMidLine: a writer killed mid-record leaves an
// unterminated line; the live reader reports ErrTorn, which the shard
// coordinator maps to worker death.
func TestStreamWriterDiesMidLine(t *testing.T) {
	r, w := io.Pipe()
	go func() {
		io.WriteString(w, `{"kind":"heartbeat","index":3}`+"\n")
		io.WriteString(w, `{"kind":"run","inde`)
		w.CloseWithError(io.EOF) // reader sees plain EOF, as after process exit
	}()
	st := NewStream(r)
	if l, err := st.Next(); err != nil || l.Kind != KindHeartbeat {
		t.Fatalf("first line: %v, %v", l, err)
	}
	if _, err := st.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn pipe tail: %v, want ErrTorn", err)
	}
}
