package inject

import (
	"testing"
	"testing/quick"

	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
)

func TestFaultTypeApply(t *testing.T) {
	cases := []struct {
		typ  FaultType
		in   uint64
		want uint64
	}{
		{ZeroBits, 0xDEADBEEF, 0},
		{ZeroBits, 0, 0},
		{OneBits, 0, 0xFFFFFFFF},
		{OneBits, 0x1234, 0xFFFFFFFF},
		{FlipBits, 0, 0xFFFFFFFF},
		{FlipBits, 0xFFFFFFFF, 0},
		{FlipBits, 0x0000FFFF, 0xFFFF0000},
	}
	for _, c := range cases {
		if got := c.typ.Apply(c.in); got != c.want {
			t.Errorf("%v.Apply(%#x) = %#x, want %#x", c.typ, c.in, got, c.want)
		}
	}
}

// Property: FlipBits is an involution on 32-bit values; ZeroBits and
// OneBits are idempotent.
func TestPropertyFaultTypeAlgebra(t *testing.T) {
	f := func(v uint32) bool {
		x := uint64(v)
		return FlipBits.Apply(FlipBits.Apply(x)) == x &&
			ZeroBits.Apply(ZeroBits.Apply(x)) == ZeroBits.Apply(x) &&
			OneBits.Apply(OneBits.Apply(x)) == OneBits.Apply(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultSpecString(t *testing.T) {
	s := FaultSpec{Function: "ReadFile", Param: 2, Invocation: 1, Type: ZeroBits}
	if got := s.String(); got != "ReadFile p2 i1 zero" {
		t.Fatalf("String() = %q", got)
	}
}

// runWorkload spawns a target making a known call sequence and returns the
// injector after the simulation drains. The kernel records telemetry,
// which injections reads.
func runWorkload(t *testing.T, spec *FaultSpec, target TargetSelector) (*Injector, *ntsim.Process) {
	t.Helper()
	k := ntsim.NewKernel()
	k.SetTelemetry(telemetry.NewRecorder(0))
	in := New(k, target, spec)
	k.SetInterceptor(in)
	k.RegisterImage("target.exe", func(p *ntsim.Process) uint32 {
		a := win32.New(p)
		h := a.CreateFileA(`C:\f`, win32.GenericRead|win32.GenericWrite, 0, win32.CreateAlways, 0)
		var n uint32
		a.WriteFile(h, []byte("abc"), 3, &n)
		a.SetFilePointer(h, 0, win32.FileBegin)
		a.ReadFile(h, make([]byte, 4), 3, &n) // invocation 1
		a.SetFilePointer(h, 0, win32.FileBegin)
		a.ReadFile(h, make([]byte, 4), 3, &n) // invocation 2
		a.CloseHandle(h)
		return 0
	})
	k.RegisterImage("bystander.exe", func(p *ntsim.Process) uint32 {
		a := win32.New(p)
		h := a.CreateFileA(`C:\g`, win32.GenericWrite, 0, win32.CreateAlways, 0)
		var n uint32
		a.WriteFile(h, []byte("zz"), 2, &n)
		a.CloseHandle(h)
		return 0
	})
	p, err := k.Spawn("target.exe", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("bystander.exe", "", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && k.Step(); i++ {
	}
	if pan := k.Panics(); len(pan) != 0 {
		t.Fatalf("panics: %v", pan)
	}
	return in, p
}

// injections returns the fault-injected events of a runWorkload trace.
func injections(in *Injector) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range in.tel.(*telemetry.Recorder).Events() {
		if e.Kind == telemetry.KindFaultInjected {
			out = append(out, e)
		}
	}
	return out
}

func TestObserverRecordsActivation(t *testing.T) {
	in, _ := runWorkload(t, nil, ByImage("target.exe"))
	if !in.Activated("ReadFile") || !in.Activated("WriteFile") || !in.Activated("CreateFileA") {
		t.Fatal("expected functions not recorded as activated")
	}
	if in.Activated("CreateProcessA") {
		t.Fatal("uncalled function recorded as activated")
	}
	if in.CallCount("ReadFile") != 2 {
		t.Fatalf("ReadFile count %d, want 2", in.CallCount("ReadFile"))
	}
	if in.Injected() {
		t.Fatal("observer injected a fault")
	}
	if in.ActivatedCount() < 4 {
		t.Fatalf("activated %d functions", in.ActivatedCount())
	}
}

func TestInjectsOnlyFirstInvocation(t *testing.T) {
	spec := &FaultSpec{Function: "ReadFile", Param: 2, Invocation: 1, Type: ZeroBits}
	in, p := runWorkload(t, spec, ByImage("target.exe"))
	if !in.Injected() {
		t.Fatal("fault did not fire")
	}
	ev := injections(in)
	if len(ev) != 1 {
		t.Fatalf("injected %d times, want 1", len(ev))
	}
	if ev[0].A != 3 || ev[0].B != 0 {
		t.Fatalf("event %+v, want the count 3 before and 0 after", ev[0])
	}
	if p.ExitCode() != 0 {
		t.Fatalf("zero-count read should be benign; exit 0x%X", p.ExitCode())
	}
}

func TestInjectsSecondInvocation(t *testing.T) {
	spec := &FaultSpec{Function: "ReadFile", Param: 2, Invocation: 2, Type: ZeroBits}
	in, _ := runWorkload(t, spec, ByImage("target.exe"))
	if !in.Injected() {
		t.Fatal("fault did not fire on invocation 2")
	}
	if ev := injections(in); len(ev) != 1 || ev[0].A != 3 {
		t.Fatalf("events %+v", ev)
	}
}

func TestPointerFlipKillsTarget(t *testing.T) {
	spec := &FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: FlipBits}
	in, p := runWorkload(t, spec, ByImage("target.exe"))
	if !in.Injected() {
		t.Fatal("fault did not fire")
	}
	if p.ExitCode() != ntsim.ExitAccessViolation {
		t.Fatalf("exit 0x%X, want access violation", p.ExitCode())
	}
}

func TestBystanderIsNeverInjected(t *testing.T) {
	spec := &FaultSpec{Function: "WriteFile", Param: 1, Invocation: 1, Type: FlipBits}
	in, p := runWorkload(t, spec, ByImage("target.exe"))
	if !in.Injected() {
		t.Fatal("fault did not fire in target")
	}
	// Target dies, but the bystander's WriteFile must be untouched: it
	// exited 0 (checked by absence of panics and by activation below).
	if p.ExitCode() != ntsim.ExitAccessViolation {
		t.Fatalf("target exit 0x%X", p.ExitCode())
	}
	if in.Activated("CloseHandle") {
		// Target died before CloseHandle; bystander calls must not
		// leak into the target's activation set.
		t.Fatal("bystander activation leaked into target set")
	}
}

func TestUninjectableParamIndexDoesNotFire(t *testing.T) {
	spec := &FaultSpec{Function: "ReadFile", Param: 97, Invocation: 1, Type: ZeroBits}
	in, p := runWorkload(t, spec, ByImage("target.exe"))
	if in.Injected() {
		t.Fatal("out-of-range parameter injected")
	}
	if p.ExitCode() != 0 {
		t.Fatalf("exit 0x%X", p.ExitCode())
	}
}

func TestParentAndChildSelectors(t *testing.T) {
	k := ntsim.NewKernel()
	var calls []string
	in := New(k, ChildProcessOf("apache.exe"), nil)
	k.SetInterceptor(&recorder{in: in, calls: &calls})
	k.RegisterImage("apache.exe", func(p *ntsim.Process) uint32 {
		a := win32.New(p)
		if p.Parent == 0 || k.Process(p.Parent).Image != "apache.exe" {
			// Master: spawn one child, then idle briefly.
			var pi win32.ProcessInformation
			a.CreateProcessA("apache.exe", "apache.exe -child", nil, &pi)
			a.WaitForSingleObject(pi.HProcess, win32.Infinite)
			return 0
		}
		// Child: do child work.
		a.GetTickCount()
		return 0
	})
	if _, err := k.Spawn("apache.exe", "apache.exe", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && k.Step(); i++ {
	}
	if pan := k.Panics(); len(pan) != 0 {
		t.Fatalf("panics: %v", pan)
	}
	// The child selector must see GetTickCount but not CreateProcessA.
	if !in.Activated("GetTickCount") {
		t.Fatal("child call not recorded")
	}
	if in.Activated("CreateProcessA") {
		t.Fatal("master call recorded under child selector")
	}

	// And the parent selector the other way around.
	k2 := ntsim.NewKernel()
	in2 := New(k2, ParentProcessOf("apache.exe"), nil)
	k2.SetInterceptor(in2)
	k2.RegisterImage("apache.exe", func(p *ntsim.Process) uint32 {
		a := win32.New(p)
		if p.Parent == 0 || k2.Process(p.Parent).Image != "apache.exe" {
			var pi win32.ProcessInformation
			a.CreateProcessA("apache.exe", "apache.exe -child", nil, &pi)
			a.WaitForSingleObject(pi.HProcess, win32.Infinite)
			return 0
		}
		a.GetTickCount()
		return 0
	})
	if _, err := k2.Spawn("apache.exe", "apache.exe", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000 && k2.Step(); i++ {
	}
	if !in2.Activated("CreateProcessA") {
		t.Fatal("master call not recorded under parent selector")
	}
	if in2.Activated("GetTickCount") {
		t.Fatal("child call recorded under parent selector")
	}
}

// recorder wraps an Injector, also capturing the call stream.
type recorder struct {
	in    *Injector
	calls *[]string
}

func (r *recorder) BeforeSyscall(pid ntsim.PID, image, fn string, raw []uint64) {
	*r.calls = append(*r.calls, fn)
	r.in.BeforeSyscall(pid, image, fn, raw)
}
