package main

// Work-stealing fleet self-tests at the CLI layer: real dts worker
// processes (this test binary re-exec'd through TestHelperProcess),
// the DTS_SHARD_CHAOS_HANG wedge drill, the degraded-completion exit
// code, and the -workers flag family validation.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ntdts/internal/journal"
)

// TestFleetArchiveMatchesUnsharded runs the 200-spec campaign through a
// work-stealing fleet of four real worker processes, with a journal
// attached, and requires the archive to byte-match the unsharded run
// and the journal to carry the dispatch provenance trail.
func TestFleetArchiveMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1") // workerSpawner re-enters via TestHelperProcess
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "fleet.json")
	jPath := filepath.Join(dir, "fleet.journal")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath,
		"-workers", "4", "-parallel", "1", "-journal", jPath}, &out); err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}
	fleet, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, fleet) {
		t.Fatal("archive from dts -workers 4 differs from the unsharded run")
	}
	if !strings.Contains(out.String(), "fleet: 4 workers (exec)") {
		t.Fatalf("summary missing the fleet line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "DEGRADED") {
		t.Fatalf("clean fleet run printed a degraded summary:\n%s", out.String())
	}

	rep, err := journal.Replay(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || len(rep.Runs) != len(rep.Plan.Jobs) {
		t.Fatalf("journal incomplete: plan %v, %d runs", rep.Plan != nil, len(rep.Runs))
	}
	assigns := 0
	for _, ev := range rep.Dispatch {
		if ev.Event == "assign" {
			assigns++
		}
	}
	if assigns < 4 {
		t.Fatalf("journal records %d assign events, want >= 4", assigns)
	}
}

// TestFleetChaosHangRedispatch is the DTS_SHARD_CHAOS_HANG drill with
// real processes: worker 1's first process wedges after five records
// with heartbeats still flowing. The fleet must finish anyway — the
// wedged chunk's remainder is speculated or re-dispatched — and the
// archive must still byte-match the unsharded run.
func TestFleetChaosHangRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_SHARD_CHAOS_HANG", "1:5")
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "hang.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-workers", "4", "-chaos"}, &out); err != nil {
		t.Fatalf("fleet campaign with wedged worker: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatal("archive after worker wedge differs from the unsharded run")
	}
}

// TestFleetChaosKillRedispatch: the SIGKILL drill through the stealing
// dispatcher — worker 1's first process kills itself mid-chunk and the
// merged archive still byte-matches.
func TestFleetChaosKillRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_SHARD_CHAOS_KILL", "1:5")
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "kill.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-workers", "4", "-chaos"}, &out); err != nil {
		t.Fatalf("fleet campaign with killed worker: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatal("archive after worker SIGKILL differs from the unsharded run")
	}
}

// TestFleetDegradedExitCode points the fleet at a dead TCP address:
// every spawn fails, the respawn budget burns out, and the campaign
// must still complete — in-process, byte-identical — while exiting
// with the dedicated degraded code so automation can tell the
// difference.
func TestFleetDegradedExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow fleet test")
	}
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	// Bind a port, then free it: a dial target that refuses quickly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	outPath := filepath.Join(dir, "degraded.json")
	var out bytes.Buffer
	runErr := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-workers", deadAddr}, &out)
	var ee *exitError
	if !errors.As(runErr, &ee) || ee.code != exitDegraded {
		t.Fatalf("err = %v, want exitError code %d (degraded completion)", runErr, exitDegraded)
	}
	if !strings.Contains(out.String(), "DEGRADED") {
		t.Fatalf("summary missing the degraded line:\n%s", out.String())
	}
	got, rerr := os.ReadFile(outPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(golden, got) {
		t.Fatal("degraded-completion archive differs from the unsharded run")
	}
}

// TestWorkersFlagValidation: the fleet flag family fails fast on
// conflicting or malformed requests, and takes the supervisor flags.
func TestWorkersFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	var out bytes.Buffer
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "4", "-experiment", "table1", "-journal", "j"}, "-experiment does not take -journal"},
		{[]string{"-config", cfgPath, "-workers", "0"}, ">= 1"},
		{[]string{"-config", cfgPath, "-workers", "bogus"}, "neither a worker count nor host:port"},
		{[]string{"-config", cfgPath, "-workers", ","}, "names no workers"},
		{[]string{"-worker-listen", ":0", "-config", cfgPath}, "-worker-listen"},
	} {
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	// The supervisor flags run the fleet supervised.
	fleetMatchesLocal(t, cfgPath, "-run-deadline", "1s")
	fleetMatchesLocal(t, cfgPath, "-max-quarantined", "3")
}

// TestWorkerListenServesRemoteFleet: a real `dts -worker-listen` child
// process hosts the workers; the coordinator in this process dials it
// with -workers host:port and the archive must byte-match the
// unsharded run — the full TCP transport through real processes.
func TestWorkerListenServesRemoteFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_WORKER_KEY", "cmd-fleet-key")
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	// Pick a free port, then hand it to the worker host child.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	host := dtsChild("-worker-listen", addr)
	var hostOut bytes.Buffer
	host.Stdout, host.Stderr = &hostOut, &hostOut
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		host.Process.Kill()
		host.Wait()
	}()
	waitForListener(t, addr)

	outPath := filepath.Join(dir, "tcp.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-workers", addr + "," + addr}, &out); err != nil {
		t.Fatalf("TCP fleet campaign: %v\nworker host output:\n%s", err, hostOut.String())
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatal("archive from the TCP fleet differs from the unsharded run")
	}
}

// waitForListener polls until addr accepts connections.
func waitForListener(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker host on %s never came up", addr)
}
