package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/journal"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/shard"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// TestSeamProbesArePassive runs a small journaled fleet campaign through
// the wrapped Spawner and ShardExecutor and checks that the wrappers
// change nothing and count exactly: the archive equals the unwrapped
// run's, and every wire line is a heartbeat, the done record, a
// duplicate from speculation, or a run the journal recorded.
func TestSeamProbesArePassive(t *testing.T) {
	var entries []config.CatalogEntry
	for _, e := range win32.Catalog() {
		if e.Params > 0 {
			entries = append(entries, config.CatalogEntry{Name: e.Name, Params: e.Params})
		}
	}
	specs := config.GenerateFaultList(entries)[:120]

	run := func(probe *wireProbe) ([]byte, *journal.Writer, core.ShardExecutor) {
		opts := core.RunnerOptions{WatchdVersion: watchd.V2, Telemetry: telemetry.Options{Enabled: true}}
		runner := core.NewRunner(workload.NewIIS(workload.Watchd), opts)
		jw, err := journal.Create(filepath.Join(t.TempDir(), "j"), shard.HeaderFor(runner))
		if err != nil {
			t.Fatal(err)
		}
		defer jw.Close()
		fopts := shard.FleetOptions{Workers: 2, WorkerParallelism: 1, ChunkSize: 8, Heartbeat: 2 * time.Millisecond, Journal: jw}
		var exec core.ShardExecutor = shard.NewFleet(fopts)
		if probe != nil {
			fopts.Spawn, fopts.Transport = probe.spawner(shard.InProcess()), "inprocess"
			exec = &timedFleet{Fleet: shard.NewFleet(fopts)}
		}
		set, err := core.NewCampaign(runner, core.WithSpecs(specs), core.WithShards(2),
			core.WithShardExecutor(exec)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if set.Dispatch == nil || set.Dispatch.Chunks == 0 {
			t.Fatalf("dispatch stats did not pass through the wrapper: %+v", set.Dispatch)
		}
		var buf bytes.Buffer
		if err := (&experiments.Archive{Kind: "set", Set: set}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), jw, exec
	}

	plain, _, _ := run(nil)
	probe := newWireProbe()
	wrapped, jw, exec := run(probe)
	if !bytes.Equal(plain, wrapped) {
		t.Fatal("archive through the wrapped seams differs from the unwrapped run")
	}
	if exec.(*timedFleet).elapsed <= 0 {
		t.Error("ExecuteShards was not timed")
	}
	lines := probe.linesIn.Load()
	accounted := lines - probe.heartbeats.Load() - probe.dones.Load() - probe.dupRuns.Load()
	if accounted != int64(jw.Records()) {
		t.Errorf("wire lines %d - heartbeats %d - done %d - duplicates %d = %d, journal holds %d records",
			lines, probe.heartbeats.Load(), probe.dones.Load(), probe.dupRuns.Load(), accounted, jw.Records())
	}
	if probe.runLines.Load() < int64(len(specs)) || probe.bytesIn.Load() == 0 || probe.bytesOut.Load() == 0 {
		t.Errorf("probe missed traffic: %d run lines for %d specs, in %d bytes, out %d bytes",
			probe.runLines.Load(), len(specs), probe.bytesIn.Load(), probe.bytesOut.Load())
	}
	layers := map[string]float64{}
	probe.report(layers, len(specs))
	if r := layers["shard.useful_ratio"]; r <= 0 || r > 1 {
		t.Errorf("shard.useful_ratio = %v, want (0, 1]", r)
	}
}
