package ntsim

import (
	"testing"
	"time"
)

func TestMailslotKernelAPI(t *testing.T) {
	k := NewKernel()
	if !IsMailslotPath(`\\.\mailslot\x`) || IsMailslotPath(`C:\f`) || IsMailslotPath(`\\.\mailslot\`) {
		t.Fatal("IsMailslotPath")
	}
	if _, errno := k.CreateMailslot(`C:\notaslot`, 0); errno != ErrInvalidName {
		t.Fatalf("bad name: %v", errno)
	}
	ms, errno := k.CreateMailslot(`\\.\mailslot\box`, MailslotWaitForever)
	if errno != ErrSuccess {
		t.Fatal(errno)
	}
	if _, errno := k.CreateMailslot(`\\.\mailslot\BOX`, 0); errno != ErrAlreadyExists {
		t.Fatalf("duplicate (case-insensitive): %v", errno)
	}
	if _, errno := k.OpenMailslot(`\\.\mailslot\other`); errno != ErrFileNotFound {
		t.Fatalf("open missing: %v", errno)
	}

	var got []string
	k.RegisterImage("reader.exe", func(p *Process) uint32 {
		buf := make([]byte, 32)
		for i := 0; i < 2; i++ {
			n, errno := ms.Read(p, buf)
			if errno != ErrSuccess {
				t.Errorf("read %d: %v", i, errno)
				return 1
			}
			got = append(got, string(buf[:n]))
		}
		return 0
	})
	k.RegisterImage("writer.exe", func(p *Process) uint32 {
		p.SleepFor(time.Second)
		mc, errno := k.OpenMailslot(`\\.\mailslot\box`)
		if errno != ErrSuccess {
			t.Errorf("open: %v", errno)
			return 1
		}
		mc.Write([]byte("one"))
		mc.Write([]byte("two"))
		return 0
	})
	mustSpawn(t, k, "reader.exe", "")
	mustSpawn(t, k, "writer.exe", "")
	runAll(t, k)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("messages %v", got)
	}
	next, count := ms.Info()
	if next != MailslotWaitForever || count != 0 {
		t.Fatalf("drained info %d/%d", next, count)
	}
	checkNoPanics(t, k)
}

func TestMailslotCloseWakesReader(t *testing.T) {
	k := NewKernel()
	ms, _ := k.CreateMailslot(`\\.\mailslot\dying`, MailslotWaitForever)
	var errno Errno
	k.RegisterImage("reader.exe", func(p *Process) uint32 {
		_, errno = ms.Read(p, make([]byte, 8))
		return 0
	})
	k.RegisterImage("closer.exe", func(p *Process) uint32 {
		p.SleepFor(time.Second)
		h := p.NewHandle(ms)
		p.CloseHandle(h) // handle cleanup tears the slot down
		return 0
	})
	mustSpawn(t, k, "reader.exe", "")
	mustSpawn(t, k, "closer.exe", "")
	runAll(t, k)
	if errno != ErrInvalidHandle {
		t.Fatalf("reader woke with %v, want ERROR_INVALID_HANDLE", errno)
	}
	checkNoPanics(t, k)
}

func TestKernelAccessors(t *testing.T) {
	k := NewKernel()
	if k.VFS() == nil || k.Clock() == nil {
		t.Fatal("nil accessors")
	}
	if !k.Idle() {
		t.Fatal("fresh kernel not idle")
	}
	if _, ok := k.LookupImage("nothing.exe"); ok {
		t.Fatal("found unregistered image")
	}
	k.RegisterImage("x.exe", func(p *Process) uint32 { return 0 })
	if _, ok := k.LookupImage("x.exe"); !ok {
		t.Fatal("registered image not found")
	}
	costs := k.Costs()
	costs.SyscallBase = 123
	k.SetCosts(costs)
	if k.Costs().SyscallBase != 123 {
		t.Fatal("SetCosts did not stick")
	}
	if k.Costs().IOCost(-1) != 0 || k.Costs().CPUCost(0) != 0 {
		t.Fatal("negative/zero cost")
	}
	if k.Process(PID(99)) != nil {
		t.Fatal("found nonexistent process")
	}
}
