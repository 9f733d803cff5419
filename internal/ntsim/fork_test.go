package ntsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ntdts/internal/telemetry"
)

// buildPrefix populates a kernel with a deterministic pseudo-random boot
// prefix: data files, directories, a tuned cost model, and program images.
// Used to fuzz snapshot-fork equivalence across many prefix shapes.
func buildPrefix(k *Kernel, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nFiles := 1 + rng.Intn(8)
	for i := 0; i < nFiles; i++ {
		data := make([]byte, rng.Intn(4096))
		rng.Read(data)
		k.VFS().WriteFile(fmt.Sprintf(`C:\data\file%d.bin`, i), data)
	}
	for i := 0; i < rng.Intn(3); i++ {
		k.VFS().MkDir(fmt.Sprintf(`C:\dirs\d%d`, i))
	}
	if rng.Intn(2) == 1 {
		costs := k.Costs()
		costs.IOPerKB *= time.Duration(1 + rng.Intn(3))
		k.SetCosts(costs)
	}
	k.RegisterImage("worker.exe", func(p *Process) uint32 {
		// Touch every subsystem a boot prefix feeds: read a file,
		// rewrite it, sleep, and burn CPU across quantum boundaries.
		// The image resolves the kernel through its process — a
		// snapshot-captured image runs on many forked kernels.
		of, errno := p.Kernel().VFS().Open(`C:\data\file0.bin`, GenericRead|GenericWrite, OpenAlways)
		if errno != ErrSuccess {
			return 1
		}
		buf := make([]byte, 64)
		of.Read(buf)
		of.SeekTo(0, FileBegin)
		of.Write([]byte("written by worker"))
		p.SleepFor(30 * time.Millisecond)
		p.ChargeTime(25 * time.Millisecond)
		return 0
	})
}

// runWorkload drives the registered worker image to completion and
// returns an observation tuple covering scheduler, clock, VFS and
// process state.
func runWorkload(t *testing.T, k *Kernel) (string, int64) {
	t.Helper()
	rec := telemetry.NewRecorder(1024)
	k.SetTelemetry(rec)
	p, err := k.Spawn("worker.exe", "worker.exe", 0)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	k.RunFor(10 * time.Second)
	if !p.Terminated() {
		t.Fatal("worker did not finish")
	}
	data, _ := k.VFS().ReadFile(`C:\data\file0.bin`)
	obs := fmt.Sprintf("exit=%d end=%s files=%v head=%q pending=%d",
		p.ExitCode(), p.EndTime(), k.VFS().List(), truncBytes(data, 32), k.Clock().Pending())
	return obs, rec.Counter(telemetry.CtrSchedQuanta)
}

func truncBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// TestForkMatchesFreshBoot fuzzes boot prefixes and checks that a forked
// kernel is observationally identical to a fresh kernel that re-executed
// the same prefix: same filesystem, same scheduling quanta, same exit
// state.
func TestForkMatchesFreshBoot(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		fresh := NewKernel()
		buildPrefix(fresh, seed)

		donor := NewKernel()
		buildPrefix(donor, seed)
		snap, err := donor.SnapshotPrefix()
		if err != nil {
			t.Fatalf("seed %d: snapshot: %v", seed, err)
		}
		forked := snap.Fork()

		wantObs, wantQuanta := runWorkload(t, fresh)
		gotObs, gotQuanta := runWorkload(t, forked)
		if gotObs != wantObs {
			t.Fatalf("seed %d: fork diverged:\n fresh: %s\n fork:  %s", seed, wantObs, gotObs)
		}
		if gotQuanta != wantQuanta {
			t.Fatalf("seed %d: quanta diverged: fresh %d fork %d", seed, wantQuanta, gotQuanta)
		}
	}
}

// TestForkIsolation proves copy-on-write isolation: a fork's writes,
// truncations, renames and deletes never leak into the snapshot or into
// sibling forks.
func TestForkIsolation(t *testing.T) {
	donor := NewKernel()
	donor.VFS().WriteFile(`C:\shared.txt`, []byte("pristine"))
	donor.VFS().WriteFile(`C:\victim.txt`, []byte("victim"))
	donor.RegisterImage("noop.exe", func(p *Process) uint32 { return 0 })
	snap, err := donor.SnapshotPrefix()
	if err != nil {
		t.Fatal(err)
	}

	a, b := snap.Fork(), snap.Fork()

	// Mutate through every mutation path on fork a.
	of, errno := a.VFS().Open(`C:\shared.txt`, GenericRead|GenericWrite, OpenExisting)
	if errno != ErrSuccess {
		t.Fatal(errno)
	}
	of.Write([]byte("CLOBBERED"))
	of.Touch(42)
	if errno := a.VFS().Rename(`C:\victim.txt`, `C:\moved.txt`); errno != ErrSuccess {
		t.Fatal(errno)
	}
	if _, errno := a.VFS().Open(`C:\shared.txt`, GenericWrite, TruncateExisting); errno != ErrSuccess {
		t.Fatal(errno)
	}

	for name, k := range map[string]*Kernel{"sibling fork": b, "donor": donor} {
		if data, _ := k.VFS().ReadFile(`C:\shared.txt`); string(data) != "pristine" {
			t.Fatalf("%s saw mutation: %q", name, data)
		}
		if data, _ := k.VFS().ReadFile(`C:\victim.txt`); string(data) != "victim" {
			t.Fatalf("%s lost victim.txt: %q", name, data)
		}
		if k.VFS().Exists(`C:\moved.txt`) {
			t.Fatalf("%s saw foreign rename", name)
		}
	}
}

// TestForkOpenDescriptionAliasing checks that two open descriptions of
// one path inside a single fork still alias each other after the
// copy-on-write clone — the legacy single-kernel semantics.
func TestForkOpenDescriptionAliasing(t *testing.T) {
	donor := NewKernel()
	donor.VFS().WriteFile(`C:\log.txt`, []byte("0123456789"))
	snap, err := donor.SnapshotPrefix()
	if err != nil {
		t.Fatal(err)
	}
	k := snap.Fork()
	writer, errno := k.VFS().Open(`C:\log.txt`, GenericWrite, OpenExisting)
	if errno != ErrSuccess {
		t.Fatal(errno)
	}
	reader, errno := k.VFS().Open(`C:\log.txt`, GenericRead, OpenExisting)
	if errno != ErrSuccess {
		t.Fatal(errno)
	}
	writer.Write([]byte("AB"))
	buf := make([]byte, 10)
	n, _ := reader.Read(buf)
	if got := string(buf[:n]); got != "AB23456789" {
		t.Fatalf("reader does not alias writer's clone: %q", got)
	}
}

// TestSnapshotRequiresQuiescence enumerates the states that make a kernel
// uncapturable and checks each is rejected with a SnapshotError.
func TestSnapshotRequiresQuiescence(t *testing.T) {
	cases := []struct {
		name string
		prep func(k *Kernel)
	}{
		{"spawned process", func(k *Kernel) {
			k.RegisterImage("x.exe", func(p *Process) uint32 { return 0 })
			if _, err := k.Spawn("x.exe", "x.exe", 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"pending timer", func(k *Kernel) {
			k.Clock().ScheduleAfter(time.Second, func() {})
		}},
		{"named object", func(k *Kernel) {
			k.RegisterNamed("obj", struct{}{})
		}},
	}
	for _, tc := range cases {
		k := NewKernel()
		tc.prep(k)
		_, err := k.SnapshotPrefix()
		var se *SnapshotError
		if err == nil {
			t.Fatalf("%s: snapshot unexpectedly succeeded", tc.name)
		} else if !asSnapshotError(err, &se) {
			t.Fatalf("%s: error %v is not a *SnapshotError", tc.name, err)
		}
	}
}

func asSnapshotError(err error, target **SnapshotError) bool {
	se, ok := err.(*SnapshotError)
	if ok {
		*target = se
	}
	return ok
}

// TestForkedWriteDoesNotGrowSnapshot: writing in one fork must copy the
// node's bytes, not alias the shared backing array.
func TestForkedWriteDoesNotGrowSnapshot(t *testing.T) {
	donor := NewKernel()
	donor.VFS().WriteFile(`C:\f`, bytes.Repeat([]byte("x"), 100))
	snap, err := donor.SnapshotPrefix()
	if err != nil {
		t.Fatal(err)
	}
	k := snap.Fork()
	of, errno := k.VFS().Open(`C:\f`, GenericWrite, OpenExisting)
	if errno != ErrSuccess {
		t.Fatal(errno)
	}
	of.Write(bytes.Repeat([]byte("y"), 50))
	if data, _ := donor.VFS().ReadFile(`C:\f`); !bytes.Equal(data, bytes.Repeat([]byte("x"), 100)) {
		t.Fatal("fork write mutated snapshot bytes")
	}
}
