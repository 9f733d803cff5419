package main

// Fleet self-tests with real worker processes: the coordinator in this
// process spawns dts workers (this test binary re-exec'd through
// TestHelperProcess, exactly like the chaos tests) and the merged
// archive must be byte-identical to the unsharded run — including after
// a worker SIGKILLs itself mid-chunk and its remainder is re-dispatched,
// and for a whole -experiment fanned out over fleets.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unshardedArchive runs the campaign unsharded in-process.
func unshardedArchive(t *testing.T, dir, cfgPath string) []byte {
	t.Helper()
	outPath := filepath.Join(dir, "unsharded.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedArchiveMatchesUnsharded fans the 200-spec campaign out over
// four real worker processes, each running a two-wide run pool, and
// byte-compares the merged archive with the unsharded run.
func TestShardedArchiveMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1") // workerSpawner re-enters via TestHelperProcess
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "sharded.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-workers", "4", "-parallel", "2"}, &out); err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}
	sharded, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, sharded) {
		t.Fatal("archive from dts -workers 4 -parallel 2 differs from the unsharded run")
	}
}

// TestExperimentWorkersMatchesInProcess runs a whole paper experiment —
// nine Figure 5 campaigns, each on its own two-worker fleet — and
// byte-compares the archive with the in-process experiment.
func TestExperimentWorkersMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	dir := t.TempDir()
	inPath := filepath.Join(dir, "inprocess.json")
	fleetPath := filepath.Join(dir, "fleet.json")
	var out bytes.Buffer
	if err := run([]string{"-experiment", "figure5", "-q", "-out", inPath}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-experiment", "figure5", "-q", "-out", fleetPath,
		"-workers", "2", "-parallel", "1"}, &out); err != nil {
		t.Fatalf("figure5 on fleets: %v", err)
	}
	want, err := os.ReadFile(inPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("figure5 archive from -workers 2 differs from the in-process experiment")
	}
}

// TestShardedWorkerSigkillRedispatch is the SIGKILL drill on a small
// fleet: worker 0 kills itself after its first record (the
// DTS_SHARD_CHAOS_KILL hook behind -chaos) while its two-wide pool still
// has runs in flight; the coordinator keeps what streamed, re-dispatches
// the rest, and the merged archive still byte-matches the unsharded run.
func TestShardedWorkerSigkillRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_SHARD_CHAOS_KILL", "0:1")
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "chaos-sharded.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-workers", "2", "-parallel", "2", "-chaos"}, &out); err != nil {
		t.Fatalf("fleet campaign with killed worker: %v", err)
	}
	sharded, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, sharded) {
		t.Fatal("archive after worker SIGKILL + re-dispatch differs from the unsharded run")
	}
}

// TestShardsFlagValidation: -workers is the one way to fan out. The
// retired -shards flag is unknown to the flag package, and -workers
// rejects the flags that need a single process (-resume takes -workers
// but still rejects -config). A positional argument is rejected by name,
// in dts and in dts serve. A -chaos list runs supervised on the fleet
// as in-process: the panic is quarantined and the flaky run retried.
func TestShardsFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-shards", "4"}, &out); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("-shards: err = %v, want the undefined-flag error", err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", cfgPath, "-workers", "4", "-resume", filepath.Join(dir, "j")}, "-resume does not take -config"},
		{[]string{"-workers", "4", "-conformance"}, "-conformance does not take -workers"},
		{[]string{"-config", cfgPath, "-workers", "2", "-fault", "ReadFile 0 1 zero"}, "-fault does not take -workers"},
		// The flag package stops at the first positional argument, so
		// -out would be silently dropped. The serve case's address is
		// unlistenable, so a missing check fails instead of serving.
		{[]string{"-config", cfgPath, "-q", "stray-arg", "-out", filepath.Join(dir, "x.json")}, `unexpected argument "stray-arg"`},
		{[]string{"serve", "-addr", "no-port", "stray-arg"}, `unexpected argument "stray-arg"`},
	} {
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	chaosCfg := writeChaosList(t, t.TempDir(), motivationList)
	fleetMatchesLocal(t, chaosCfg, "-chaos")
	fleetMatchesLocal(t, chaosCfg, "-chaos", "-max-quarantined", "3")
}

// TestShardChaosEnvGating proves the DTS_SHARD_CHAOS_KILL plumbing: a
// malformed spec is a hard error when -chaos arms it — so the kill drill
// demonstrably reaches the coordinator — and inert without -chaos.
func TestShardChaosEnvGating(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec fleet test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_SHARD_CHAOS_KILL", "bogus")
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	outPath := filepath.Join(dir, "gated.json")
	var out bytes.Buffer
	err := run([]string{"-config", cfgPath, "-out", outPath, "-q", "-workers", "2", "-chaos"}, &out)
	if err == nil || !strings.Contains(err.Error(), "chaos kill spec") {
		t.Fatalf("armed bogus chaos spec: err = %v, want a parse error", err)
	}
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q", "-workers", "2"}, &out); err != nil {
		t.Fatalf("unarmed chaos env must be ignored: %v", err)
	}
}
