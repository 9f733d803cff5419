package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// TestCampaignSnapshotsTakeFastPath runs 21 IIS/watchd-v2 faults with
// telemetry on and checks that every run's journal snapshot — the bytes
// MarshalRunRecord hands the journal and the fleet wire — decodes in
// UnmarshalRunRecord, the fleet coordinator's and a resume's decode, on
// the canonical fast path: the recorder keeps the events encoded,
// writes them back unchanged, and holds what encoding/json decodes.
// Were the encoder to drift from the decoder, every output would stay
// correct through the fallback and only the speed would be lost; this
// catches it.
func TestCampaignSnapshotsTakeFastPath(t *testing.T) {
	opts := core.DefaultRunnerOptions()
	opts.WatchdVersion = watchd.V2
	opts.Telemetry = telemetry.Options{Enabled: true}
	var specs []inject.FaultSpec
	for _, fn := range []string{"CreateFileA", "ReadFile", "WriteFile", "SetFilePointer", "CloseHandle", "WaitForSingleObject", "ConnectNamedPipe"} {
		for _, ft := range []inject.FaultType{inject.ZeroBits, inject.OneBits, inject.FlipBits} {
			specs = append(specs, inject.FaultSpec{Function: fn, Invocation: 1, Type: ft})
		}
	}
	set, err := core.NewCampaign(core.NewRunner(workload.NewIIS(workload.Watchd), opts),
		core.WithSpecs(specs), core.WithParallelism(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Runs) != len(specs) {
		t.Fatalf("%d runs, want %d", len(set.Runs), len(specs))
	}
	activated := 0
	for i := range set.Runs {
		result, tel, err := core.MarshalRunRecord(&set.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		var want telemetry.Snapshot
		if err := json.Unmarshal(tel, &want); err != nil {
			t.Fatal(err)
		}
		res, err := core.UnmarshalRunRecord(result, tel)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Events) == 0 || !telemetry.KeepsEvents(res.Telemetry) {
			t.Fatalf("run %d: the decoded recorder does not keep its %d events encoded", i, len(want.Events))
		}
		if got := res.Telemetry.AppendSnapshotJSON(nil); !bytes.Equal(got, tel) {
			t.Fatalf("run %d: the decoded recorder re-encodes to\n%.300s\nwant\n%.300s", i, got, tel)
		}
		if got := res.Telemetry.Snapshot(); !reflect.DeepEqual(*got, want) {
			t.Fatalf("run %d: fast path decoded %+v, encoding/json %+v", i, *got, want)
		}
		if want.Counters[telemetry.CtrFaultActivated] > 0 {
			activated++
		}
	}
	if activated == 0 {
		t.Fatal("no fault activated: the campaign exercises no fault-lifecycle events")
	}
}
