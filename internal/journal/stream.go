package journal

// Streaming reader for the journal line format. The shard protocol
// (internal/shard) reuses journal records as its wire format — a worker
// process streams one record per completed run back to its coordinator
// over a pipe — so the reader must work incrementally on a live stream,
// not just on a finished file. Replay is built on the same reader: a
// journal file is simply a stream that happens to be complete.
//
// Torn-tail semantics match the file replay rules: a final line that is
// unterminated, or terminated but unparsable, is the signature of a
// killed writer and surfaces as ErrTorn; an unparsable line anywhere
// before the end of the stream is corruption and a hard error.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Wire-only line kinds: they appear on shard protocol streams, never in
// journal files (Replay rejects them as stray).
const (
	// KindHeartbeat is a worker liveness beacon, emitted on a wall-clock
	// ticker so the coordinator can tell "long run" from "wedged worker".
	// Index carries the records written so far.
	KindHeartbeat = "heartbeat"
	// KindDone marks clean worker completion; Index carries the total
	// record count, cross-checked by the coordinator.
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
	offset int64  // bytes consumed through the last successfully decoded line
	buf    []byte // spill buffer for lines longer than the bufio window, reused across records
}

// NewStream wraps r in a journal line reader.
func NewStream(r io.Reader) *Stream {
	return &Stream{br: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the byte offset of the verified record-complete prefix:
// everything up to and including the last line Next returned. This is
// what Replayed.ValidBytes records and Append truncates to.
func (s *Stream) Offset() int64 { return s.offset }

// LineNo returns the 1-based number of the last line read.
func (s *Stream) LineNo() int { return s.lineNo }

// Next returns the next decoded line. At a clean end of stream it
// returns io.EOF; a torn final line returns ErrTorn; garbage before the
// end of the stream is a hard error.
func (s *Stream) Next() (*Line, error) {
	raw, err := s.readLine()
	if err == io.EOF {
		if len(raw) == 0 {
			return nil, io.EOF
		}
		// Writers always terminate lines with a single Write, so an
		// unterminated final line is torn by definition.
		return nil, ErrTorn
	}
	if err != nil {
		return nil, fmt.Errorf("journal stream read: %w", err)
	}
	s.lineNo++
	line, derr := decodeLine(raw[:len(raw)-1])
	if derr != nil {
		// Corrupt or torn? A crash can tear mid-buffer, leaving a
		// terminated but unparsable last line. Peek: if nothing follows,
		// classify as torn; otherwise the corruption is mid-stream. On a
		// live pipe Peek blocks until the writer produces more bytes or
		// dies — either resolves the classification.
		if _, perr := s.br.Peek(1); perr == io.EOF {
			return nil, ErrTorn
		}
		return nil, fmt.Errorf("line %d: %w", s.lineNo, derr)
	}
	s.offset += int64(len(raw))
	return line, nil
}

// readLine returns the next line including its trailing newline (absent
// only at EOF). The slice aliases the bufio window or the stream's spill
// buffer and is valid only until the next call — Next decodes it before
// reading further, and json.Unmarshal copies what it keeps, so no
// per-record allocation survives. This keeps the shard wire path (one
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
// is a record (one per run on the journal and on the shard wire), so it
// decodes straight into a Record: one pass over the bytes instead of a
// kind probe plus a second full decode. A clean decode carrying a record
// kind is exactly what decodeLineByKind would return. Header and plan
// lines, and any line the Record decode rejects, take decodeLineByKind,
// so every other Line and every error stays as that path spells it.
func decodeLine(data []byte) (*Line, error) {
	rec := &Record{}
	if json.Unmarshal(data, rec) == nil {
		switch rec.Kind {
		case KindRun, KindQuarantine, KindAssign, KindHeartbeat, KindDone, KindError:
			return &Line{Kind: rec.Kind, Rec: rec}, nil
		}
	}
	return decodeLineByKind(data)
}

// decodeLineByKind probes a line's kind, then decodes it into the type
// that kind names.
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
	default:
		return nil, fmt.Errorf("unknown kind %q", probe.Kind)
	}
	return l, nil
}
