// Package jsonwire holds the byte-level pieces shared by the run-record
// codecs (telemetry snapshots and journal run lines): encoding/json's
// exact string quoting, a strict validator for payloads that may be
// spliced into a line verbatim, and a Reader for the canonical bytes
// those codecs write.
//
// Every function either reproduces encoding/json exactly or reports that
// it cannot, and the caller then falls back to encoding/json. Strictness
// is always safe: rejecting a valid input costs only speed.
package jsonwire

import (
	"math"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as json.Marshal quotes a string: '"', '\\',
// control bytes, '<', '>', '&', U+2028 and U+2029 escaped, and every
// invalid UTF-8 byte replaced by \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxDepth bounds the nesting the validator follows. encoding/json
// allows 10000; deeper strict values are simply not recognized.
const maxDepth = 512

// Compact reports whether b is exactly one strict JSON value: valid
// JSON with no whitespace outside strings, no '<', '>' or '&', and no
// U+2028 or U+2029. Those are the bytes json.Marshal leaves unchanged
// when it writes b as a json.RawMessage, so a strict payload can be
// spliced into a line where encoding/json would re-compact it.
func Compact(b []byte) bool {
	return len(b) > 0 && valueEnd(b, 0, 0) == len(b)
}

// valueEnd returns the index just past the strict value (see Compact)
// that starts at data[i], nested depth deep, or -1 when none starts
// there.
func valueEnd(data []byte, i, depth int) int {
	if i < 0 || i >= len(data) {
		return -1
	}
	switch c := data[i]; {
	case c == '{', c == '[':
		if depth == maxDepth {
			return -1
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		i++
		if i < len(data) && data[i] == closer {
			return i + 1
		}
		for {
			if c == '{' {
				if i >= len(data) || data[i] != '"' {
					return -1
				}
				i = stringEnd(data, i)
				if i < 0 || i >= len(data) || data[i] != ':' {
					return -1
				}
				i++
			}
			i = valueEnd(data, i, depth+1)
			if i < 0 || i >= len(data) {
				return -1
			}
			switch data[i] {
			case ',':
				i++
			case closer:
				return i + 1
			default:
				return -1
			}
		}
	case c == '"':
		return stringEnd(data, i)
	case c == '-' || c >= '0' && c <= '9':
		return numberEnd(data, i)
	case c == 't':
		return literalEnd(data, i, "true")
	case c == 'f':
		return literalEnd(data, i, "false")
	case c == 'n':
		return literalEnd(data, i, "null")
	}
	return -1
}

// stop marks the bytes stringEnd must look at: everything but the
// printable ASCII and UTF-8 bytes a strict string carries verbatim.
var stop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&', 0xE2} {
		t[c] = true
	}
	return t
}()

// stringEnd returns the index just past the strict string whose opening
// quote is data[i], or -1.
func stringEnd(data []byte, i int) int {
	for i++; i < len(data); i++ {
		for i < len(data) && !stop[data[i]] {
			i++
		}
		if i == len(data) {
			break
		}
		switch c := data[i]; {
		case c == '"':
			return i + 1
		case c < 0x20, c == '<', c == '>', c == '&':
			return -1
		case c == 0xE2:
			if i+2 < len(data) && data[i+1] == 0x80 && data[i+2]&^1 == 0xA8 {
				return -1
			}
		case c == '\\':
			i++
			if i >= len(data) {
				return -1
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(data) {
					return -1
				}
				for _, h := range data[i+1 : i+5] {
					if !isHex(h) {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// numberEnd returns the index just past the JSON number starting at
// data[i], or -1.
func numberEnd(data []byte, i int) int {
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		i = digitsEnd(data, i)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || !isDigit(data[i]) {
			return -1
		}
		i = digitsEnd(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return -1
		}
		i = digitsEnd(data, i)
	}
	return i
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func digitsEnd(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

func literalEnd(data []byte, i int, lit string) int {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// Reader reads the canonical bytes the run-record codecs write. It is
// strict: the first read that finds anything else fails the reader, and
// every later read is a no-op returning a zero value. A decoder makes
// all its reads, then checks Done once and falls back to encoding/json
// when it reports false.
type Reader struct {
	data []byte
	off  int
	bad  bool
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Done reports whether every read succeeded and consumed all the input.
func (r *Reader) Done() bool { return !r.bad && r.off == len(r.data) }

// Offset returns how many bytes of the input the reader has consumed.
func (r *Reader) Offset() int { return r.off }

// Expect consumes lit, failing the reader unless the input continues
// with it.
func (r *Reader) Expect(lit string) {
	if !r.Skip(lit) {
		r.bad = true
	}
}

// Skip consumes lit if the input continues with it, and reports whether
// it did. A failed reader skips nothing.
func (r *Reader) Skip(lit string) bool {
	if r.bad || len(r.data)-r.off < len(lit) || string(r.data[r.off:r.off+len(lit)]) != lit {
		return false
	}
	r.off += len(lit)
	return true
}

// Int reads a canonical integer that fits in bitSize bits: what
// strconv.AppendInt writes, so no "-0" and no leading zeros.
func (r *Reader) Int(bitSize int) int64 {
	neg := r.Skip("-")
	u := r.Uint(64)
	limit := uint64(1)<<(bitSize-1) - 1
	switch {
	case r.bad:
		return 0
	case neg && u != 0 && u <= limit+1:
		return -int64(u)
	case !neg && u <= limit:
		return int64(u)
	}
	r.bad = true
	return 0
}

// Uint reads a canonical unsigned integer that fits in bitSize bits.
func (r *Reader) Uint(bitSize int) uint64 {
	if r.bad {
		return 0
	}
	i := r.off
	var u uint64
	for ; i < len(r.data) && isDigit(r.data[i]); i++ {
		d := uint64(r.data[i] - '0')
		if u > (math.MaxUint64-d)/10 {
			r.bad = true
			return 0
		}
		u = u*10 + d
	}
	switch {
	case i == r.off, r.data[r.off] == '0' && i > r.off+1:
		r.bad = true // no digits, or a leading zero
	case i < len(r.data) && (r.data[i] == '.' || r.data[i] == 'e' || r.data[i] == 'E'):
		r.bad = true // a number, but not an integer
	case bitSize < 64 && u >= 1<<bitSize:
		r.bad = true
	}
	if r.bad {
		return 0
	}
	r.off = i
	return u
}

// String reads a string whose bytes are its value: valid UTF-8 with no
// escapes, the only strings encoding/json decodes to their own bytes.
// The result aliases the input.
func (r *Reader) String() []byte {
	if r.bad || r.off >= len(r.data) || r.data[r.off] != '"' {
		r.bad = true
		return nil
	}
	start := r.off + 1
	for i := start; i < len(r.data); {
		c := r.data[i]
		switch {
		case c == '"':
			r.off = i + 1
			return r.data[start:i]
		case c < 0x20, c == '\\':
			r.bad = true
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			rn, size := utf8.DecodeRune(r.data[i:])
			if rn == utf8.RuneError && size == 1 {
				r.bad = true
				return nil
			}
			i += size
		}
	}
	r.bad = true
	return nil
}

// Verbatim reports whether AppendString writes the valid UTF-8 s back
// as its own bytes between quotes, with nothing escaped: whether s holds
// no control byte, '"', '\\', '<', '>', '&', U+2028 or U+2029.
func Verbatim(s []byte) bool {
	for i, c := range s {
		if stop[c] && (c != 0xE2 || i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8) {
			return false
		}
	}
	return true
}

// Value reads one strict value (see Compact) and returns its bytes,
// which alias the input.
func (r *Reader) Value() []byte {
	if r.bad {
		return nil
	}
	end := valueEnd(r.data, r.off, 0)
	if end < 0 {
		r.bad = true
		return nil
	}
	v := r.data[r.off:end]
	r.off = end
	return v
}
