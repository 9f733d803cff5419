package jsonwire

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"unicode/utf8"
)

// FuzzJSONWire holds every helper to encoding/json and strconv on the
// same bytes: AppendString quotes as json.Marshal does, the validator
// accepts nothing json.Valid rejects and only what json.Marshal of a
// json.RawMessage leaves unchanged, the integer reads accept exactly
// the canonical spellings strconv writes, and Verbatim holds for a valid
// UTF-8 string exactly when AppendString writes it back unescaped.
func FuzzJSONWire(f *testing.F) {
	for _, seed := range []string{
		`{"cap":8,"events":[{"at":-1,"pid":4,"kind":"exit","name":"w3svc"}],"hists":{"run":{"Counts":null,"N":0,"Sum":0}}}`,
		`{"a":[1,-0.5e+7,true,false,null,"x\"\\\/\b\f\n\r\t\u00e9"]}`,
		`{"a": 1}`, ` 1`, `1 `, `[1,]`, `{"a":1,}`, `{"a"}`, `01`, `-`, `1.`, `1e`, `.5`, `-0`,
		`"<p>&amp;</p>"`, "\"\u2028\u2029\"", "\"\xff\xfe\"", "\"\x01\"", `"\u12"`, `"\x"`,
		`18446744073709551615`, `18446744073709551616`, `-9223372036854775808`, `-9223372036854775809`,
		`4294967295`, `4294967296`, `9223372036854775807`, `9223372036854775808`, `12.0`, `3e2`,
		`tru`, `nul`, `null`, `[[[[[[[[]]]]]]]]`, `{}`, `[]`, `""`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := json.Marshal(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, string(data)); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", data, got, want)
		}
		if utf8.Valid(data) && Verbatim(data) != (string(want) == `"`+string(data)+`"`) {
			t.Fatalf("Verbatim(%q) = %v, but AppendString writes %s", data, Verbatim(data), want)
		}

		if Compact(data) {
			if !json.Valid(data) {
				t.Fatalf("Compact accepts %q, which json.Valid rejects", data)
			}
			got, err := json.Marshal(json.RawMessage(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Compact accepts %q, which json.Marshal rewrites to %q (%v)", data, got, err)
			}
		}
		for i := range data {
			if end := valueEnd(data, i, 0); end >= 0 && !json.Valid(data[i:end]) {
				t.Fatalf("valueEnd(%q, %d) = %d, a span json.Valid rejects", data, i, end)
			}
		}

		for _, bits := range []int{32, 64} {
			rd := NewReader(data)
			if v := rd.Int(bits); rd.Done() {
				if s := strconv.FormatInt(v, 10); s != string(data) {
					t.Fatalf("Int(%d) reads %q as %s", bits, data, s)
				}
			} else if n, err := strconv.ParseInt(string(data), 10, bits); err == nil && strconv.FormatInt(n, 10) == string(data) {
				t.Fatalf("Int(%d) rejects canonical %q", bits, data)
			}
			rd = NewReader(data)
			if v := rd.Uint(bits); rd.Done() {
				if s := strconv.FormatUint(v, 10); s != string(data) {
					t.Fatalf("Uint(%d) reads %q as %s", bits, data, s)
				}
			} else if n, err := strconv.ParseUint(string(data), 10, bits); err == nil && strconv.FormatUint(n, 10) == string(data) {
				t.Fatalf("Uint(%d) rejects canonical %q", bits, data)
			}
		}

		rd := NewReader(data)
		if s := rd.String(); rd.Done() {
			var got string
			if err := json.Unmarshal(data, &got); err != nil || got != string(s) {
				t.Fatalf("String reads %q as %q; json.Unmarshal gives %q (%v)", data, s, got, err)
			}
		}
	})
}

func TestCompact(t *testing.T) {
	for in, want := range map[string]bool{
		`{"a":[1,2.5e-3,"x"],"b":{}}`: true,
		`null`:                        true,
		`"\u2028"`:                    true, // escaped: json.Marshal leaves it alone
		"\"\u2028\"":                  false,
		`"a<b"`:                       false,
		`{"a": 1}`:                    false,
		`1 `:                          false,
		``:                            false,
		`[1,2`:                        false,
		`{"a":1}{}`:                   false,
	} {
		if got := Compact([]byte(in)); got != want {
			t.Errorf("Compact(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestReaderIsSticky(t *testing.T) {
	rd := NewReader([]byte(`{"a":01,"b":2}`))
	rd.Expect(`{"a":`)
	if v := rd.Int(64); v != 0 || rd.Done() {
		t.Fatalf("leading zero read as %d", v)
	}
	if rd.Skip(`,"b":`) {
		t.Fatal("a failed reader must skip nothing")
	}
}
