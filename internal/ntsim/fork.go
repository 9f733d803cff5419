package ntsim

import "ntdts/internal/vclock"

// Prefix snapshots. A fault-injection campaign re-executes the same
// deterministic boot prefix — image registration, filesystem population,
// cost-model tuning — for every one of its thousands of runs. A
// PrefixSnapshot captures that prefix once, at a quiescent instant, and
// Fork materializes any number of kernels resuming from it without
// replaying the setup work or re-allocating the filesystem contents.
//
// The capture is honest about what a Go-based simulation can snapshot:
// simulated processes are real goroutines parked on channels, and goroutine
// stacks cannot be copied. A kernel is therefore only snapshottable while
// it is quiescent — no process ever spawned, no timer events pending, no
// pipe/mailslot/named-object state. SnapshotPrefix reports a descriptive
// error otherwise, and callers (core.Runner) fall back to a fresh boot.
// Every state a snapshot does capture is deep-frozen: VFS nodes are marked
// copy-on-write (see vfs.go), so concurrent forks share the bytes until
// one of them writes.

// PrefixSnapshot is an immutable capture of a quiescent kernel's boot
// state. It is safe for concurrent Fork calls from multiple goroutines.
type PrefixSnapshot struct {
	images map[string]EntryFunc
	files  map[string]*vfile
	dirs   map[string]string
	costs  CostModel
	now    vclock.Time
	seq    uint64
	nextID vclock.EventID
}

// SnapshotError explains why a kernel could not be snapshotted; callers
// use it to fall back to fresh-boot runs.
type SnapshotError struct{ Reason string }

func (e *SnapshotError) Error() string { return "ntsim: snapshot: " + e.Reason }

// SnapshotPrefix captures the kernel's state as an immutable prefix
// snapshot. It fails with a *SnapshotError unless the kernel is quiescent:
// live goroutine process state, queued timer events, and open IPC
// namespaces cannot be captured. On success the kernel's VFS nodes become
// copy-on-write shared; the donor kernel remains usable (its own writes
// clone just like a fork's).
func (k *Kernel) SnapshotPrefix() (*PrefixSnapshot, error) {
	switch {
	case k.nextPID != 0:
		return nil, &SnapshotError{"processes already spawned (goroutine stacks cannot be captured)"}
	case k.current != nil || k.mach.readyCount() != 0:
		return nil, &SnapshotError{"scheduler not idle"}
	case k.clock.Pending() != 0:
		return nil, &SnapshotError{"timer events pending"}
	case len(k.pipes) != 0:
		return nil, &SnapshotError{"open pipe namespace"}
	case len(k.slots) != 0:
		return nil, &SnapshotError{"open mailslot namespace"}
	case len(k.named) != 0:
		return nil, &SnapshotError{"named kernel objects registered"}
	case len(k.panics) != 0:
		return nil, &SnapshotError{"simulated code panicked"}
	}
	images := make(map[string]EntryFunc, len(k.images))
	for name, entry := range k.images {
		images[name] = entry
	}
	files, dirs := k.vfs.snapshotMaps()
	seq, nextID := k.clock.Counters()
	return &PrefixSnapshot{
		images: images,
		files:  files,
		dirs:   dirs,
		costs:  k.costs,
		now:    k.clock.Now(),
		seq:    seq,
		nextID: nextID,
	}, nil
}

// Fork materializes a standalone kernel resuming from the snapshot: the
// only node of a new Machine. The result is indistinguishable from a
// fresh kernel on which the snapshotted setup just ran: same images, same
// filesystem contents (shared copy-on-write), same cost model, and a
// clock positioned at the snapshot's time and sequence counters so
// subsequent event scheduling orders identically. Safe to call from
// multiple goroutines.
func (s *PrefixSnapshot) Fork() *Kernel { return s.ForkInto(NewMachine()) }

// ForkInto materializes a machine node resuming from the snapshot. The
// first fork positions the machine's shared clock at the snapshot's time
// and counters (so a cluster boots exactly where a single kernel would);
// subsequent forks join the already-positioned clock.
func (s *PrefixSnapshot) ForkInto(m *Machine) *Kernel {
	if len(m.kernels) == 0 {
		m.clock.RestoreCounters(s.now, s.seq, s.nextID)
	}
	k := m.AddKernel()
	for name, entry := range s.images {
		k.images[name] = entry
	}
	k.vfs.restoreFrom(s.files, s.dirs)
	k.costs = s.costs
	return k
}
