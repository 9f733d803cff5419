package win32

import (
	"time"

	"ntdts/internal/ntsim"
	"ntdts/internal/telemetry"
)

// The canonical probe program: one simulated process that exercises every
// implemented API function with valid baseline arguments. It is the
// invocation builder behind three consumers:
//
//   - the catalog arity cross-check (api_test.go) verifies that the export
//     catalog's parameter counts match the live dispatch path;
//   - the consequence matrix (consequences_test.go) corrupts each probe
//     parameter and asserts the fault model's safety contract;
//   - the apiharness conformance sweep drives the whole catalog with the
//     paper's three corruptions and pins the failure-mode matrix.
//
// Because the kernel is a deterministic single-CPU simulation, the probe's
// dispatch trace — the ordered syscall events, each a function and the raw
// arity that crossed the system-call boundary, in the run's telemetry — is
// a pure constant of the build, which is what makes golden-matrix
// conformance testing possible.

// Image names of the probe workload's processes.
const (
	// ProbeImage is the probe program itself — the fault-injection target.
	ProbeImage = "probe.exe"
	// ProbeServerImage is the pipe server the probe talks to.
	ProbeServerImage = "srv.exe"
	// ProbeChildImage is the child the probe spawns via CreateProcessA.
	ProbeChildImage = "child.exe"
)

// ProbeDeadline bounds one probe run in virtual time: corrupted timeout or
// handle parameters can park the probe nearly forever (the paper's "hang"
// class), so runs are cut off here and stragglers killed.
const ProbeDeadline = 120 * time.Second

// SetupProbe prepares a fresh kernel to host the probe workload: fixture
// files and all three program images. Install any interceptor before
// calling RunProbe so the probe's first system call is already observed.
func SetupProbe(k *ntsim.Kernel) {
	k.VFS().WriteFile(`C:\probe.ini`, []byte("[s]\nk=v\n"))
	k.RegisterImage(ProbeChildImage, func(p *ntsim.Process) uint32 { return 0 })
	k.RegisterImage(ProbeServerImage, func(p *ntsim.Process) uint32 {
		a := New(p)
		h := a.CreateNamedPipeA(`\\.\pipe\probe`, PipeAccessDuplex, PipeTypeByte, 1)
		if h == InvalidHandle {
			return 1
		}
		if !a.ConnectNamedPipe(h) {
			return 1
		}
		buf := make([]byte, 8)
		var n uint32
		a.ReadFile(h, buf, 8, &n)
		a.WriteFile(h, []byte("x"), 1, &n)
		a.FlushFileBuffers(h)
		a.DisconnectNamedPipe(h)
		return 0
	})
	k.RegisterImage(ProbeImage, func(p *ntsim.Process) uint32 {
		probeBody(New(p))
		return 0
	})
}

// RunProbe spawns the probe workload on a prepared kernel, drains it up to
// ProbeDeadline of virtual time, kills stragglers, and returns the probe
// process for inspection. A probe that did not terminate by the deadline is
// the simulation's "hang" consequence and exits with ExitTerminated.
func RunProbe(k *ntsim.Kernel) (*ntsim.Process, error) {
	span := telemetry.StartSpan(k.Telemetry(), k.Now(), 0, telemetry.SpanProbe)
	srv, err := k.Spawn(ProbeServerImage, ProbeServerImage, 0)
	if err != nil {
		return nil, err
	}
	probe, err := k.Spawn(ProbeImage, ProbeImage, 0)
	if err != nil {
		return nil, err
	}
	k.RunFor(ProbeDeadline)
	if !probe.Terminated() {
		probe.Terminate(ntsim.ExitTerminated)
	}
	if !srv.Terminated() {
		srv.Terminate(ntsim.ExitTerminated)
	}
	k.KillAll()
	span.End(k.Now())
	return probe, nil
}

// probeBody exercises every implemented API function once with valid
// arguments. Keep the traversal deterministic and append-only: the
// conformance golden matrix pins the dispatch order of everything here.
func probeBody(a *API) {
	var n uint32
	fh := a.CreateFileA(`C:\probe.dat`, GenericRead|GenericWrite, 0, CreateAlways, 0)
	a.WriteFile(fh, []byte("xy"), 2, &n)
	a.SetFilePointer(fh, 0, FileBegin)
	a.ReadFile(fh, make([]byte, 2), 2, &n)
	a.ReadFileEx(fh, make([]byte, 2), 0, &n)
	a.GetFileSize(fh, nil)
	a.GetFileType(fh)
	a.FlushFileBuffers(fh)
	a.CloseHandle(fh)
	a.GetFileAttributesA(`C:\probe.ini`)
	a.DeleteFileA(`C:\probe.dat`)
	a.WaitNamedPipeA(`\\.\pipe\probe`, 5000)
	ph := a.CreateFileA(`\\.\pipe\probe`, GenericRead|GenericWrite, 0, OpenExisting, 0)
	a.WriteFile(ph, []byte("x"), 1, &n)
	a.ReadFile(ph, make([]byte, 8), 8, &n)
	a.PeekNamedPipe(ph, nil)
	a.CloseHandle(ph)
	var pi ProcessInformation
	a.CreateProcessA(ProbeChildImage, ProbeChildImage, nil, &pi)
	a.WaitForSingleObject(pi.HProcess, 10_000)
	a.WaitForMultipleObjects([]Handle{pi.HProcess}, false, 100)
	var code uint32
	a.GetExitCodeProcess(pi.HProcess, &code)
	a.TerminateProcess(pi.HProcess, 0)
	op := a.OpenProcess(0, false, a.Process().ID)
	a.CloseHandle(op)
	a.GetCurrentProcess()
	a.GetCurrentProcessId()
	a.GetCurrentThreadId()
	a.Sleep(1)
	a.GetTickCount()
	a.GetCommandLineA()
	a.GetStartupInfoA(nil)
	a.GetEnvironmentVariableA("PATH", nil)
	a.SetEnvironmentVariableA("X", "1")
	eh := a.CreateEventA(false, false, "probe-ev")
	a.OpenEventA(0, false, "probe-ev")
	a.SetEvent(eh)
	a.ResetEvent(eh)
	mh := a.CreateMutexA(false, "")
	a.WaitForSingleObject(mh, 0)
	a.ReleaseMutex(mh)
	sh := a.CreateSemaphoreA(1, 2, "")
	a.ReleaseSemaphore(sh, 1, nil)
	var cs CriticalSection
	a.InitializeCriticalSection(&cs)
	a.EnterCriticalSection(&cs)
	a.LeaveCriticalSection(&cs)
	a.DeleteCriticalSection(&cs)
	var cell int32
	a.InterlockedIncrement(&cell)
	a.InterlockedDecrement(&cell)
	a.InterlockedExchange(&cell, 5)
	hp := a.GetProcessHeap()
	blk := a.HeapAlloc(hp, 0, 16)
	a.HeapFree(hp, 0, blk)
	ph2 := a.HeapCreate(0, 0, 0)
	a.HeapDestroy(ph2)
	va := a.VirtualAlloc(0, 4096, 0, 0)
	a.VirtualFree(va, 0, 0)
	la := a.LocalAlloc(0, 8)
	a.LocalFree(la)
	ga := a.GlobalAlloc(0, 8)
	a.GlobalFree(ga)
	a.GetLastError()
	a.SetLastError(0)
	a.GetVersion()
	a.GetVersionExA(nil)
	a.GetModuleHandleA("")
	a.GetModuleFileNameA(0, nil)
	lib := a.LoadLibraryA("advapi32.dll")
	a.GetProcAddress(lib, "RegOpenKeyExA")
	a.FreeLibrary(lib)
	a.GetStdHandle(StdOutputHandle)
	a.GetSystemInfo(nil)
	a.GetSystemTime(nil)
	a.GetLocalTime(nil)
	a.GetSystemTimeAsFileTime(nil)
	a.QueryPerformanceCounter(nil)
	a.QueryPerformanceFrequency(nil)
	a.GetACP()
	a.GetOEMCP()
	a.GetCPInfo(1252, nil)
	a.GetComputerNameA(nil)
	a.GetSystemDirectoryA(nil)
	a.GetWindowsDirectoryA(nil)
	a.GetTempPathA(nil)
	a.GetCurrentDirectoryA(nil)
	a.LstrlenA("x")
	a.LstrcpyA("x")
	a.LstrcatA("a", "b")
	a.LstrcmpiA("a", "A")
	a.MultiByteToWideChar(1252, "x")
	a.WideCharToMultiByte(1252, "x")
	a.OutputDebugStringA("dbg")
	a.FormatMessageA(0, 2)
	idx := a.TlsAlloc()
	a.TlsSetValue(idx, 1)
	a.TlsGetValue(idx)
	a.TlsFree(idx)
	a.GetPrivateProfileStringA("s", "k", "", `C:\probe.ini`)
	a.GetPrivateProfileIntA("s", "k", 0, `C:\probe.ini`)
	a.IsBadReadPtr(0, 1)
	a.IsBadWritePtr(0, 1)
	a.SetHandleCount(32)
	a.GlobalMemoryStatus(nil)
	var dup Handle
	a.DuplicateHandle(0, eh, 0, &dup)
	// File management.
	a.CreateDirectoryA(`C:\probe-dir`)
	a.CreateFileA(`C:\probe-dir\a.log`, GenericWrite, 0, CreateAlways, 0)
	var fd FindData
	fh2 := a.FindFirstFileA(`C:\probe-dir\*.log`, &fd)
	a.FindNextFileA(fh2, &fd)
	a.FindClose(fh2)
	a.MoveFileA(`C:\probe-dir\a.log`, `C:\probe-dir\b.log`)
	a.CopyFileA(`C:\probe-dir\b.log`, `C:\probe-dir\c.log`, false)
	a.SetFileAttributesA(`C:\probe-dir\c.log`, 0x80)
	a.GetFullPathNameA(`probe.ini`, nil)
	a.SearchPathA("probe.ini", nil)
	a.GetDriveTypeA(`C:\`)
	a.GetLogicalDrives()
	a.SetErrorMode(1)
	a.GetDiskFreeSpaceA(`C:\`, nil)
	a.DeleteFileA(`C:\probe-dir\b.log`)
	a.DeleteFileA(`C:\probe-dir\c.log`)
	a.RemoveDirectoryA(`C:\probe-dir`)
	// Console.
	a.AllocConsole()
	conOut := a.GetStdHandle(StdOutputHandle)
	a.WriteConsoleA(conOut, []byte("p"), 1, &n)
	a.GetConsoleMode(conOut, nil)
	a.SetConsoleMode(conOut, 3)
	a.SetConsoleTitleA("probe")
	a.GetConsoleTitleA(nil)
	a.GetConsoleCP()
	a.GetConsoleOutputCP()
	a.SetConsoleCP(437)
	a.SetConsoleOutputCP(437)
	a.FlushConsoleInputBuffer(conOut)
	a.SetConsoleCtrlHandler(true)
	a.FreeConsole()
	// Atoms.
	at := a.AddAtomA("probe-atom")
	a.FindAtomA("probe-atom")
	a.GetAtomNameA(at, nil)
	a.DeleteAtom(at)
	gat := a.GlobalAddAtomA("probe-gatom")
	a.GlobalFindAtomA("probe-gatom")
	a.GlobalGetAtomNameA(gat, nil)
	a.GlobalDeleteAtom(gat)
	// File times.
	th := a.CreateFileA(`C:\probe.ts`, GenericRead|GenericWrite, 0, CreateAlways, 0)
	a.WriteFile(th, []byte("t"), 1, &n)
	var ft Filetime
	a.GetFileTime(th, &ft)
	a.SetFileTime(th, ft)
	a.CompareFileTime(ft, ft)
	var st2 SystemTime
	a.FileTimeToSystemTime(ft, &st2)
	a.SystemTimeToFileTime(st2, &ft)
	a.FileTimeToLocalFileTime(ft, &ft)
	a.LocalFileTimeToFileTime(ft, &ft)
	a.CloseHandle(th)
	// Mailslots (poll-mode reads so a corrupted timeout cannot hang).
	msh := a.CreateMailslotA(`\\.\mailslot\probe`, 0, 0)
	msc := a.CreateFileA(`\\.\mailslot\probe`, GenericWrite, 0, OpenExisting, 0)
	a.WriteFile(msc, []byte("m"), 1, &n)
	a.GetMailslotInfo(msh, nil, nil)
	a.SetMailslotInfo(msh, 0)
	a.ReadFile(msh, make([]byte, 8), 8, &n)
	a.CloseHandle(msc)
	a.CloseHandle(msh)
	// Volume and temp names.
	a.GetVolumeInformationA(`C:\`, nil, nil, nil)
	a.GetTempFileNameA(`C:\TEMP`, "prb", 1, nil)
	// Sync extras.
	pe := a.CreateEventA(true, false, "")
	a.PulseEvent(pe)
	var cs2 CriticalSection
	a.InitializeCriticalSection(&cs2)
	a.TryEnterCriticalSection(&cs2)
	a.LeaveCriticalSection(&cs2)
	sw := a.CreateEventA(false, true, "")
	a.SignalObjectAndWait(pe, sw, 0)
}
