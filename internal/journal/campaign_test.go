package journal_test

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/shard"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// TestCampaignRunLinesTakeFastPath journals 21 IIS/watchd-v2 faults with
// telemetry on and checks that every run line the supervisor wrote
// decodes on the run-line fast path. Were AppendRun to drift from
// decodeRunLine, every output would stay correct through the fallback
// and only the speed would be lost; this catches it.
func TestCampaignRunLinesTakeFastPath(t *testing.T) {
	opts := core.DefaultRunnerOptions()
	opts.WatchdVersion = watchd.V2
	opts.Telemetry = telemetry.Options{Enabled: true}
	runner := core.NewRunner(workload.NewIIS(workload.Watchd), opts)
	var specs []inject.FaultSpec
	for _, fn := range []string{"CreateFileA", "ReadFile", "WriteFile", "SetFilePointer", "CloseHandle", "WaitForSingleObject", "ConnectNamedPipe"} {
		for _, ft := range []inject.FaultType{inject.ZeroBits, inject.OneBits, inject.FlipBits} {
			specs = append(specs, inject.FaultSpec{Function: fn, Invocation: 1, Type: ft})
		}
	}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jw, err := journal.Create(path, shard.HeaderFor(runner))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewCampaign(runner, core.WithSpecs(specs), core.WithJournal(jw, nil),
		core.WithParallelism(1)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	runs := 0
	for sc.Scan() {
		line := sc.Bytes()
		rec := journal.DecodeRunLine(line)
		if rec == nil {
			if n := len(`{"kind":"run"`); len(line) >= n && string(line[:n]) == `{"kind":"run"` {
				t.Fatalf("run line missed the fast path: %.300s", line)
			}
			continue
		}
		if len(rec.Tel) == 0 {
			t.Fatalf("run %d journaled without its snapshot", rec.Index)
		}
		runs++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != len(specs) {
		t.Fatalf("%d run lines took the fast path, want all %d", runs, len(specs))
	}
}
