package journal

// Streaming reader for the journal line format. The shard protocol
// (internal/shard) reuses journal records as its wire format — a worker
// process streams one record per completed run back to its coordinator
// over a pipe — so the reader must work incrementally on a live stream,
// not just on a finished file. Replay reads a finished file, whole, and
// decodes its lines on the pool; both decode every line through
// decodeRaw, so a line means the same on a pipe and in a file.
//
// Torn-tail semantics are decodeRaw's: a final line that is
// unterminated, or terminated but unparsable, is the signature of a
// killed writer and surfaces as ErrTorn; an unparsable line anywhere
// before the end of the stream is corruption and a hard error.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"ntdts/internal/jsonwire"
)

// Wire-only line kinds: they appear on shard protocol streams, never in
// journal files (Replay rejects them as stray).
const (
	// KindHeartbeat is a worker liveness beacon, emitted on a wall-clock
	// ticker so the coordinator can tell "long run" from "wedged worker".
	// Index carries the records written so far.
	KindHeartbeat = "heartbeat"
	// KindDone marks clean worker completion; Index carries the total
	// record count. The fleet coordinator never reads it: after its last
	// chunk it closes the worker's stdin and kills the connection. A
	// done record that arrives mid-chunk is a worker death.
	KindDone = "done"
	// KindError reports a worker-side run failure: Index is the failing
	// job's global index, Message the error text. The worker exits
	// non-zero after writing it.
	KindError = "error"
)

// ErrTorn reports a stream that ended mid-record: an unterminated or
// unparsable final line. For journal files this is the signature of a
// SIGKILLed writer (discard the tail and resume); for shard streams it
// marks a worker that died mid-write (re-dispatch its remaining runs).
var ErrTorn = errors.New("journal: stream ends in a torn record")

// Line is one decoded journal line. Exactly one of Header, Plan, Rec is
// non-nil, selected by Kind.
type Line struct {
	Kind   string
	Header *Header
	Plan   *Plan
	Rec    *Record
}

// Stream reads journal-format lines incrementally. On a live pipe, Next
// blocks until a full line (or EOF) arrives.
type Stream struct {
	br     *bufio.Reader
	lineNo int
	buf    []byte // spill buffer for lines longer than the bufio window, reused across records
}

// NewStream wraps r in a journal line reader.
func NewStream(r io.Reader) *Stream {
	return &Stream{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next decoded line. At a clean end of stream it
// returns io.EOF; a torn final line returns ErrTorn; garbage before the
// end of the stream is a hard error.
func (s *Stream) Next() (*Line, error) {
	raw, err := s.readLine()
	if err == io.EOF && len(raw) == 0 {
		return nil, io.EOF
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("journal stream read: %w", err)
	}
	s.lineNo++
	line, err := decodeRaw(raw, s.lineNo, func() bool {
		// On a live pipe Peek blocks until the writer produces more
		// bytes or dies; either resolves the classification.
		_, perr := s.br.Peek(1)
		return perr == io.EOF
	})
	if err != nil {
		return nil, err
	}
	if rec := line.Rec; rec != nil {
		// The run-line payloads alias raw, which the next read reuses.
		rec.Result, rec.Tel = bytes.Clone(rec.Result), bytes.Clone(rec.Tel)
	}
	return line, nil
}

// decodeRaw decodes one raw line, its newline included when it has one,
// and tells a torn line from a corrupt one. An unterminated line is torn
// by definition, since writers terminate every line in a single Write.
// A terminated line that does not decode is torn when it is the last
// line (last reports that nothing follows it: a crash can tear
// mid-buffer) and otherwise corruption, reported by its 1-based number.
// last is called only for a line that does not decode.
func decodeRaw(raw []byte, lineNo int, last func() bool) (*Line, error) {
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		return nil, ErrTorn
	}
	line, err := decodeLine(raw[:len(raw)-1])
	if err == nil {
		return line, nil
	}
	if last() {
		return nil, ErrTorn
	}
	return nil, fmt.Errorf("line %d: %w", lineNo, err)
}

// readLine returns the next line including its trailing newline (absent
// only at EOF). The slice aliases the bufio window or the stream's spill
// buffer and is valid only until the next call — Next decodes it and
// copies the payloads a record keeps before reading further, so no
// per-record buffer survives. This keeps the shard wire path (one
// record per completed run, streamed over a pipe) allocation-flat.
func (s *Stream) readLine() ([]byte, error) {
	raw, err := s.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return raw, err
	}
	s.buf = append(s.buf[:0], raw...)
	for err == bufio.ErrBufferFull {
		raw, err = s.br.ReadSlice('\n')
		s.buf = append(s.buf, raw...)
	}
	return s.buf, err
}

// decodeLine parses one newline-stripped journal line. Nearly every line
// is a run record (one per run on the journal and on the shard wire), so
// it first tries decodeRunLine, which returns exactly what
// decodeLineByKind would; every other line, and any run line the fast
// path declines, takes decodeLineByKind, so every other Line and every
// error stays as that path spells it. A run record's payloads may alias
// data, and are strict on both paths, so AppendRun can write the record
// again as it is.
func decodeLine(data []byte) (*Line, error) {
	if rec := decodeRunLine(data); rec != nil {
		return &Line{Kind: KindRun, Rec: rec}, nil
	}
	return decodeLineByKind(data)
}

// decodeRunLine decodes a run line in the canonical form AppendRun
// writes, validating each payload as strict (jsonwire.Reader.Value),
// and returns the Record decodeLineByKind would. The payloads alias
// data, capped at their own length so that an append cannot overwrite
// the bytes after them. On any deviation it returns nil.
func decodeRunLine(data []byte) *Record {
	rd := jsonwire.NewReader(data)
	rec := &Record{Kind: KindRun}
	rd.Expect(`{"kind":"run","index":`)
	rec.Index = int(rd.Int(strconv.IntSize))
	rd.Expect(`,"key":`)
	rec.Key = string(rd.String())
	if rd.Skip(`,"attempts":`) {
		rec.Attempts = int(rd.Int(strconv.IntSize))
	}
	if rd.Skip(`,"result":`) {
		v := rd.Value()
		rec.Result = v[:len(v):len(v)]
	}
	if rd.Skip(`,"tel":`) {
		v := rd.Value()
		rec.Tel = v[:len(v):len(v)]
	}
	rd.Expect("}")
	if !rd.Done() {
		return nil
	}
	return rec
}

// decodeLineByKind probes a line's kind, then decodes it into the type
// that kind names. A run record's payloads come back strict: json.Marshal
// of each as a json.RawMessage, which compacts it and escapes what
// encoding/json escapes, and which leaves strict bytes as they are.
func decodeLineByKind(data []byte) (*Line, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	l := &Line{Kind: probe.Kind}
	switch probe.Kind {
	case KindHeader:
		l.Header = &Header{}
		if err := json.Unmarshal(data, l.Header); err != nil {
			return nil, err
		}
	case KindPlan:
		l.Plan = &Plan{}
		if err := json.Unmarshal(data, l.Plan); err != nil {
			return nil, err
		}
	case KindRun, KindQuarantine, KindAssign, KindHeartbeat, KindDone, KindError:
		l.Rec = &Record{}
		if err := json.Unmarshal(data, l.Rec); err != nil {
			return nil, err
		}
		if l.Kind == KindRun {
			for _, p := range []*json.RawMessage{&l.Rec.Result, &l.Rec.Tel} {
				if len(*p) != 0 {
					// Bytes json.Unmarshal accepted always marshal.
					*p, _ = json.Marshal(*p)
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", probe.Kind)
	}
	return l, nil
}
