package win32

import (
	"testing"
	"time"

	"ntdts/internal/ntsim"
)

// funcInterceptor adapts a closure to the kernel interceptor interface.
type funcInterceptor struct {
	fn func(pid ntsim.PID, image, fn string, raw []uint64)
}

func (f *funcInterceptor) BeforeSyscall(pid ntsim.PID, image, fn string, raw []uint64) {
	f.fn(pid, image, fn, raw)
}

func runAll(t *testing.T, k *ntsim.Kernel) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if !k.Step() {
			return
		}
	}
	t.Fatal("kernel did not go idle")
}

func checkNoPanics(t *testing.T, k *ntsim.Kernel) {
	t.Helper()
	if pan := k.Panics(); len(pan) != 0 {
		t.Fatalf("unexpected panics: %v", pan)
	}
}

func spawnMain(t *testing.T, k *ntsim.Kernel, body func(a *API) uint32) *ntsim.Process {
	t.Helper()
	k.RegisterImage("main.exe", func(p *ntsim.Process) uint32 {
		return body(New(p))
	})
	p, err := k.Spawn("main.exe", "main.exe", 0)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	return p
}

func TestFileRoundtripThroughAPI(t *testing.T) {
	k := ntsim.NewKernel()
	spawnMain(t, k, func(a *API) uint32 {
		h := a.CreateFileA(`C:\data\x.txt`, GenericRead|GenericWrite, 0, CreateAlways, 0)
		if h == InvalidHandle {
			t.Error("CreateFileA failed")
			return 1
		}
		var n uint32
		if !a.WriteFile(h, []byte("payload"), 7, &n) || n != 7 {
			t.Errorf("WriteFile n=%d err=%v", n, a.Process().LastError())
			return 1
		}
		if a.SetFilePointer(h, 0, FileBegin) != 0 {
			t.Error("SetFilePointer")
			return 1
		}
		buf := make([]byte, 16)
		if !a.ReadFile(h, buf, 16, &n) || n != 7 || string(buf[:n]) != "payload" {
			t.Errorf("ReadFile n=%d %q", n, buf[:n])
			return 1
		}
		if a.GetFileSize(h, nil) != 7 {
			t.Error("GetFileSize")
		}
		if a.GetFileType(h) != 1 {
			t.Error("GetFileType disk")
		}
		if !a.CloseHandle(h) {
			t.Error("CloseHandle")
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestCorruptedHandleReturnsInvalidHandle(t *testing.T) {
	k := ntsim.NewKernel()
	k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, _, fn string, raw []uint64) {
		if fn == "ReadFile" {
			raw[0] = 0 // zero the handle parameter
		}
	}})
	var lastErr ntsim.Errno
	spawnMain(t, k, func(a *API) uint32 {
		h := a.CreateFileA(`C:\f`, GenericRead|GenericWrite, 0, CreateAlways, 0)
		var n uint32
		if a.ReadFile(h, make([]byte, 4), 4, &n) {
			t.Error("ReadFile with corrupted handle succeeded")
		}
		lastErr = a.GetLastError()
		return 0
	})
	runAll(t, k)
	if lastErr != ntsim.ErrInvalidHandle {
		t.Fatalf("last error %v, want ERROR_INVALID_HANDLE", lastErr)
	}
	checkNoPanics(t, k)
}

func TestCorruptedBufferPointerCrashes(t *testing.T) {
	k := ntsim.NewKernel()
	k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, _, fn string, raw []uint64) {
		if fn == "ReadFile" {
			raw[1] ^= 0xFFFFFFFFFFFFFFFF // flip the buffer pointer
		}
	}})
	p := spawnMain(t, k, func(a *API) uint32 {
		h := a.CreateFileA(`C:\f`, GenericRead|GenericWrite, 0, CreateAlways, 0)
		var n uint32
		a.WriteFile(h, []byte("abc"), 3, &n)
		a.SetFilePointer(h, 0, FileBegin)
		a.ReadFile(h, make([]byte, 4), 4, &n)
		return 0 // unreachable: the ReadFile faults
	})
	runAll(t, k)
	if p.ExitCode() != ntsim.ExitAccessViolation {
		t.Fatalf("exit 0x%X, want access violation", p.ExitCode())
	}
	checkNoPanics(t, k)
}

func TestNulledBufferPointerReturnsNoaccess(t *testing.T) {
	k := ntsim.NewKernel()
	k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, _, fn string, raw []uint64) {
		if fn == "WriteFile" {
			raw[1] = 0 // NULL the source buffer
		}
	}})
	var lastErr ntsim.Errno
	p := spawnMain(t, k, func(a *API) uint32 {
		h := a.CreateFileA(`C:\f`, GenericRead|GenericWrite, 0, CreateAlways, 0)
		var n uint32
		if a.WriteFile(h, []byte("abc"), 3, &n) {
			t.Error("WriteFile with NULL buffer succeeded")
		}
		lastErr = a.GetLastError()
		return 0
	})
	runAll(t, k)
	if p.ExitCode() != 0 {
		t.Fatalf("process died: 0x%X", p.ExitCode())
	}
	if lastErr != ntsim.ErrNoaccess {
		t.Fatalf("last error %v, want ERROR_NOACCESS", lastErr)
	}
	checkNoPanics(t, k)
}

func TestZeroedCountReadsZeroBytes(t *testing.T) {
	k := ntsim.NewKernel()
	k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, _, fn string, raw []uint64) {
		if fn == "ReadFileEx" {
			raw[2] = 0 // the paper's SQL/watchd fault: zero nNumberOfBytesToRead
		}
	}})
	spawnMain(t, k, func(a *API) uint32 {
		h := a.CreateFileA(`C:\f`, GenericRead|GenericWrite, 0, CreateAlways, 0)
		var n uint32
		a.WriteFile(h, []byte("abc"), 3, &n)
		a.SetFilePointer(h, 0, FileBegin)
		if !a.ReadFileEx(h, make([]byte, 4), 4, &n) {
			t.Errorf("zero-length ReadFileEx failed: %v", a.Process().LastError())
		}
		if n != 0 {
			t.Errorf("read %d bytes, want 0", n)
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestOnesCountOverrunsBufferAndCrashes(t *testing.T) {
	k := ntsim.NewKernel()
	k.SetInterceptor(&funcInterceptor{fn: func(_ ntsim.PID, _, fn string, raw []uint64) {
		if fn == "ReadFile" {
			raw[2] = 0xFFFFFFFFFFFFFFFF // all-ones byte count
		}
	}})
	p := spawnMain(t, k, func(a *API) uint32 {
		h := a.CreateFileA(`C:\f`, GenericRead|GenericWrite, 0, CreateAlways, 0)
		var n uint32
		a.ReadFile(h, make([]byte, 4), 4, &n)
		return 0
	})
	runAll(t, k)
	if p.ExitCode() != ntsim.ExitAccessViolation {
		t.Fatalf("exit 0x%X, want access violation", p.ExitCode())
	}
	checkNoPanics(t, k)
}

func TestPipeThroughAPI(t *testing.T) {
	k := ntsim.NewKernel()
	const pipe = `\\.\pipe\api`
	var reply string
	k.RegisterImage("srv.exe", func(p *ntsim.Process) uint32 {
		a := New(p)
		h := a.CreateNamedPipeA(pipe, PipeAccessDuplex, PipeTypeByte, 1)
		if h == InvalidHandle {
			t.Error("CreateNamedPipeA failed")
			return 1
		}
		if !a.ConnectNamedPipe(h) {
			t.Errorf("ConnectNamedPipe: %v", a.Process().LastError())
			return 1
		}
		buf := make([]byte, 32)
		var n uint32
		if !a.ReadFile(h, buf, 32, &n) {
			t.Errorf("server ReadFile: %v", a.Process().LastError())
			return 1
		}
		out := append([]byte("re:"), buf[:n]...)
		a.WriteFile(h, out, uint32(len(out)), &n)
		a.FlushFileBuffers(h) // disconnect discards unread bytes
		a.DisconnectNamedPipe(h)
		a.CloseHandle(h)
		return 0
	})
	k.RegisterImage("cli.exe", func(p *ntsim.Process) uint32 {
		a := New(p)
		if !a.WaitNamedPipeA(pipe, 5000) {
			t.Errorf("WaitNamedPipeA: %v", a.Process().LastError())
			return 1
		}
		h := a.CreateFileA(pipe, GenericRead|GenericWrite, 0, OpenExisting, 0)
		if h == InvalidHandle {
			t.Errorf("client CreateFileA: %v", a.Process().LastError())
			return 1
		}
		var n uint32
		a.WriteFile(h, []byte("ping"), 4, &n)
		buf := make([]byte, 32)
		if !a.ReadFile(h, buf, 32, &n) {
			t.Errorf("client ReadFile: %v", a.Process().LastError())
			return 1
		}
		reply = string(buf[:n])
		a.CloseHandle(h)
		return 0
	})
	if _, err := k.Spawn("srv.exe", "", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("cli.exe", "", 0); err != nil {
		t.Fatal(err)
	}
	runAll(t, k)
	if reply != "re:ping" {
		t.Fatalf("reply %q", reply)
	}
	checkNoPanics(t, k)
}

func TestCreateProcessAndWait(t *testing.T) {
	k := ntsim.NewKernel()
	k.RegisterImage("child.exe", func(p *ntsim.Process) uint32 {
		New(p).Sleep(500)
		return 3
	})
	spawnMain(t, k, func(a *API) uint32 {
		var pi ProcessInformation
		if !a.CreateProcessA("child.exe", "child.exe -x", nil, &pi) {
			t.Errorf("CreateProcessA: %v", a.Process().LastError())
			return 1
		}
		if a.WaitForSingleObject(pi.HProcess, Infinite) != ntsim.WaitObject0 {
			t.Error("wait on child failed")
		}
		var code uint32
		if !a.GetExitCodeProcess(pi.HProcess, &code) || code != 3 {
			t.Errorf("child exit code %d", code)
		}
		a.CloseHandle(pi.HProcess)
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestGetExitCodeStillActive(t *testing.T) {
	k := ntsim.NewKernel()
	k.RegisterImage("child.exe", func(p *ntsim.Process) uint32 {
		New(p).Sleep(10_000)
		return 0
	})
	spawnMain(t, k, func(a *API) uint32 {
		var pi ProcessInformation
		a.CreateProcessA("child.exe", "child.exe", nil, &pi)
		var code uint32
		if !a.GetExitCodeProcess(pi.HProcess, &code) || code != ntsim.ExitStillActive {
			t.Errorf("live child code %d, want STILL_ACTIVE", code)
		}
		a.TerminateProcess(pi.HProcess, 99)
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestEventAPINamedSharing(t *testing.T) {
	k := ntsim.NewKernel()
	var opened bool
	k.RegisterImage("a.exe", func(p *ntsim.Process) uint32 {
		a := New(p)
		h := a.CreateEventA(true, false, "Global\\sync")
		a.Sleep(1000)
		a.SetEvent(h)
		return 0
	})
	k.RegisterImage("b.exe", func(p *ntsim.Process) uint32 {
		a := New(p)
		a.Sleep(100)
		h := a.OpenEventA(0, false, "Global\\sync")
		if h == 0 {
			t.Error("OpenEventA failed")
			return 1
		}
		opened = true
		if a.WaitForSingleObject(h, 5000) != ntsim.WaitObject0 {
			t.Error("named event never signaled")
		}
		return 0
	})
	k.Spawn("a.exe", "", 0)
	k.Spawn("b.exe", "", 0)
	runAll(t, k)
	if !opened {
		t.Fatal("event was not opened")
	}
	checkNoPanics(t, k)
}

func TestHeapAllocFree(t *testing.T) {
	k := ntsim.NewKernel()
	spawnMain(t, k, func(a *API) uint32 {
		h := a.GetProcessHeap()
		addr := a.HeapAlloc(h, 0, 128)
		if addr == 0 {
			t.Error("HeapAlloc failed")
			return 1
		}
		buf, found := a.HeapBuf(h, addr)
		if !found || len(buf) != 128 {
			t.Error("HeapBuf lookup failed")
		}
		if !a.HeapFree(h, 0, addr) {
			t.Error("HeapFree failed")
		}
		if a.HeapAlloc(h, 0, 1<<30) != 0 {
			t.Error("huge HeapAlloc should fail")
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestHeapFreeWildPointerCrashes(t *testing.T) {
	k := ntsim.NewKernel()
	p := spawnMain(t, k, func(a *API) uint32 {
		h := a.GetProcessHeap()
		a.HeapFree(h, 0, 0xDEADBEEF)
		return 0
	})
	runAll(t, k)
	if p.ExitCode() != ntsim.ExitAccessViolation {
		t.Fatalf("exit 0x%X, want AV", p.ExitCode())
	}
	checkNoPanics(t, k)
}

func TestPrivateProfileString(t *testing.T) {
	k := ntsim.NewKernel()
	k.VFS().WriteFile(`C:\apache\conf\httpd.ini`, []byte(
		"[server]\nMaxChildren=1\nDocumentRoot=C:\\htdocs\n[log]\nLevel=warn\n"))
	spawnMain(t, k, func(a *API) uint32 {
		if got := a.GetPrivateProfileStringA("server", "DocumentRoot", "?", `C:\apache\conf\httpd.ini`); got != `C:\htdocs` {
			t.Errorf("DocumentRoot = %q", got)
		}
		if got := a.GetPrivateProfileIntA("server", "MaxChildren", 9, `C:\apache\conf\httpd.ini`); got != 1 {
			t.Errorf("MaxChildren = %d", got)
		}
		if got := a.GetPrivateProfileIntA("server", "Missing", 9, `C:\apache\conf\httpd.ini`); got != 9 {
			t.Errorf("default = %d", got)
		}
		if got := a.GetPrivateProfileStringA("server", "DocumentRoot", "?", `C:\nothere.ini`); got != "?" {
			t.Errorf("missing file = %q", got)
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestSleepInfiniteHangs(t *testing.T) {
	k := ntsim.NewKernel()
	p := spawnMain(t, k, func(a *API) uint32 {
		a.Sleep(Infinite)
		return 0
	})
	k.RunFor(time.Hour)
	if p.Terminated() {
		t.Fatal("Sleep(INFINITE) returned")
	}
	p.Terminate(ntsim.ExitTerminated)
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestTlsRoundtrip(t *testing.T) {
	k := ntsim.NewKernel()
	spawnMain(t, k, func(a *API) uint32 {
		idx := a.TlsAlloc()
		if !a.TlsSetValue(idx, 77) {
			t.Error("TlsSetValue")
		}
		if a.TlsGetValue(idx) != 77 {
			t.Error("TlsGetValue")
		}
		if !a.TlsFree(idx) {
			t.Error("TlsFree")
		}
		if a.TlsSetValue(idx, 1) {
			t.Error("TlsSetValue on freed slot succeeded")
		}
		return 0
	})
	runAll(t, k)
	checkNoPanics(t, k)
}

// TestCatalogArityMatchesDispatch cross-checks the catalog's parameter
// counts against the live raw-parameter arity of every implemented API
// function, using the canonical probe program's syscall events (probe.go).
func TestCatalogArityMatchesDispatch(t *testing.T) {
	arity := make(map[string]int)
	for _, e := range probeSyscalls(t) {
		if prev, seen := arity[e.Name]; seen && prev != int(e.A) {
			t.Errorf("%s dispatched with both %d and %d raw params", e.Name, prev, e.A)
		}
		arity[e.Name] = int(e.A)
	}
	if len(arity) < 80 {
		t.Fatalf("probe exercised only %d functions", len(arity))
	}
	for fn, n := range arity {
		entry, found := CatalogLookup(fn)
		if !found {
			t.Errorf("%s dispatched but missing from catalog", fn)
			continue
		}
		if entry.Params != n {
			t.Errorf("%s: catalog says %d params, dispatch uses %d", fn, entry.Params, n)
		}
	}
}
