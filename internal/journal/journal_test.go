package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testHeader() Header {
	return Header{Workload: "IIS", Supervision: "none", RunDeadlineNS: 1e9}
}

// writeJournal builds a journal with n run records and returns its path.
func writeJournal(t *testing.T, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "t.journal")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePlan([]string{"ReadFile/0/1/1", "WriteFile/0/1/2"}, "deadbeefdeadbeef"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res := json.RawMessage(`{"outcome":1}`)
		if err := w.WriteRun(i, "ReadFile/0/1/1", 1, res, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rt.journal")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePlan([]string{"a/0/1/1", "b/1/1/2/probe"}, "fp"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(0, "a/0/1/1", 2, json.RawMessage(`{"x":1}`), json.RawMessage(`{"cap":8}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteQuarantine(1, "b/1/1/2", json.RawMessage(`{"function":"b"}`), "panic", "boom", "stack\ntrace", 3); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 {
		t.Fatalf("Records() = %d, want 2", w.Records())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	rep, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Error("clean journal reported torn")
	}
	if rep.Header.Workload != "IIS" || rep.Header.Version != Version {
		t.Errorf("header %+v", rep.Header)
	}
	if rep.Plan == nil || rep.Plan.Fingerprint != "fp" || len(rep.Plan.Jobs) != 2 {
		t.Errorf("plan %+v", rep.Plan)
	}
	run, ok := rep.Runs[0]
	if !ok || run.Key != "a/0/1/1" || run.Attempts != 2 || string(run.Result) != `{"x":1}` || string(run.Tel) != `{"cap":8}` {
		t.Errorf("run record %+v", run)
	}
	q, ok := rep.Quarantined[1]
	if !ok || q.Reason != "panic" || q.Message != "boom" || q.Stack != "stack\ntrace" || q.Attempts != 3 {
		t.Errorf("quarantine record %+v", q)
	}
	if rep.Records != 2 {
		t.Errorf("Records = %d, want 2", rep.Records)
	}
	fi, _ := os.Stat(path)
	if rep.ValidBytes != fi.Size() {
		t.Errorf("ValidBytes %d, file %d", rep.ValidBytes, fi.Size())
	}
}

// TestJournalTornTail: every strict prefix that cuts into the final line
// is classified torn (record discarded), not corrupt.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, 3)
	os.Remove(path + ".ckpt") // isolate tail classification from checkpoints
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastNL := strings.LastIndexByte(strings.TrimRight(string(full), "\n"), '\n')
	for _, cut := range []int{len(full) - 1, lastNL + 2, lastNL + 10} {
		tp := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(tp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(tp)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rep.Torn {
			t.Errorf("cut %d: not classified torn", cut)
		}
		if rep.Records != 2 {
			t.Errorf("cut %d: %d records survive, want 2", cut, rep.Records)
		}
		if rep.ValidBytes != int64(lastNL)+1 {
			t.Errorf("cut %d: ValidBytes %d, want %d", cut, rep.ValidBytes, lastNL+1)
		}
	}
}

// TestJournalMidFileCorruption: an invalid line anywhere before the tail
// is a hard error, never silently skipped.
func TestJournalMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "{garbage\n" // first run record
	cp := filepath.Join(dir, "corrupt.journal")
	if err := os.WriteFile(cp, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(cp); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption returned %v, want corrupt-line error", err)
	}
}

// TestJournalCheckpointGuard: a journal truncated below its checkpoint
// is corruption (data the checkpoint promised durable is gone), not a
// torn tail.
func TestJournalCheckpointGuard(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, CheckpointEvery+2)
	ckpt, err := os.ReadFile(path + ".ckpt")
	if err != nil {
		t.Fatalf("no checkpoint after %d records: %v", CheckpointEvery+2, err)
	}
	var c Checkpoint
	if err := json.Unmarshal(ckpt, &c); err != nil {
		t.Fatal(err)
	}
	if c.Records < CheckpointEvery {
		t.Fatalf("checkpoint records %d, want >= %d", c.Records, CheckpointEvery)
	}
	if err := os.Truncate(path, c.Bytes/2); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(path); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("sub-checkpoint truncation returned %v, want checkpoint error", err)
	}
}

// TestJournalAppendTruncates: Append removes the torn tail so the next
// record lands on a clean line boundary.
func TestJournalAppendTruncates(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, 2)
	os.Remove(path + ".ckpt")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || rep.Records != 1 {
		t.Fatalf("torn=%v records=%d, want torn with 1 record", rep.Torn, rep.Records)
	}
	w, err := Append(path, rep.ValidBytes, rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(1, "WriteFile/0/1/2", 1, json.RawMessage(`{"outcome":5}`), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep2, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Torn || rep2.Records != 2 {
		t.Fatalf("after append: torn=%v records=%d, want clean with 2", rep2.Torn, rep2.Records)
	}
	if string(rep2.Runs[1].Result) != `{"outcome":5}` {
		t.Errorf("appended record %s", rep2.Runs[1].Result)
	}
}

// TestJournalCreateResetsCheckpoint: reusing a journal path must reset
// the checkpoint sidecar, or the old campaign's final checkpoint
// out-claims the new journal and an early kill reads as corruption.
func TestJournalCreateResetsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, 10) // leaves a 10-record checkpoint

	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePlan([]string{"ReadFile/0/1/1"}, "fp2"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(0, "ReadFile/0/1/1", 1, json.RawMessage(`{"outcome":1}`), nil); err != nil {
		t.Fatal(err)
	}
	w.Close() // killed before any Sync: no new checkpoint beyond Create's

	rep, err := Replay(path)
	if err != nil {
		t.Fatalf("second campaign's journal refused: %v", err)
	}
	if rep.Records != 1 || rep.Plan.Fingerprint != "fp2" {
		t.Fatalf("replayed %d records, plan %q", rep.Records, rep.Plan.Fingerprint)
	}
}

// TestJournalVersionAndHeaderChecks: missing header and wrong version
// are rejected.
func TestJournalVersionAndHeaderChecks(t *testing.T) {
	dir := t.TempDir()
	noHeader := filepath.Join(dir, "nohdr.journal")
	if err := os.WriteFile(noHeader, []byte(`{"kind":"plan","jobs":[],"fingerprint":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(noHeader); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("headerless journal returned %v", err)
	}
	badVer := filepath.Join(dir, "badver.journal")
	if err := os.WriteFile(badVer, []byte(`{"kind":"header","version":99}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(badVer); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version journal returned %v", err)
	}
}

// TestRunLineCodecFieldSet pins the Record shape AppendRun and
// decodeRunLine know. A new or changed field must be taught to both
// (journal.go and stream.go) before this list is updated: a field
// without omitempty, for one, would appear on every run line.
func TestRunLineCodecFieldSet(t *testing.T) {
	want := "kind string; index int; key string; attempts,omitempty int; " +
		"result,omitempty json.RawMessage; tel,omitempty json.RawMessage; fault,omitempty json.RawMessage; " +
		"reason,omitempty string; message,omitempty string; stack,omitempty string; " +
		"worker,omitempty int; event,omitempty string; indices,omitempty []int"
	rt := reflect.TypeOf(Record{})
	var fields []string
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		fields = append(fields, f.Tag.Get("json")+" "+f.Type.String())
	}
	if got := strings.Join(fields, "; "); got != want {
		t.Errorf("Record fields changed: update AppendRun and decodeRunLine, then this test\n got %s\nwant %s", got, want)
	}
}
