// Package inject implements the DTS fault-injection mechanism: interception
// of KERNEL32 calls and corruption of call parameters (paper §3). The
// injector sits on the kernel's system-call dispatch path — the simulation
// analogue of the DLL-interposition shim the original tool used — and
// applies exactly the paper's three corruption types to one parameter of
// one invocation of one function per run.
package inject

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"ntdts/internal/ntsim"
	"ntdts/internal/telemetry"
)

// FaultType is one of the paper's three parameter corruptions.
type FaultType int

const (
	// ZeroBits resets all bits of the parameter to zero.
	ZeroBits FaultType = iota + 1
	// OneBits sets all bits of the parameter to one.
	OneBits
	// FlipBits takes the one's complement of the parameter value.
	FlipBits
)

// String names the fault type the way the paper does.
func (t FaultType) String() string {
	switch t {
	case ZeroBits:
		return "zero"
	case OneBits:
		return "ones"
	case FlipBits:
		return "flip"
	default:
		return fmt.Sprintf("FaultType(%d)", int(t))
	}
}

// AllFaultTypes lists the paper's corruption set in its canonical order.
func AllFaultTypes() []FaultType { return []FaultType{ZeroBits, OneBits, FlipBits} }

// Apply corrupts a raw parameter value. NT parameters are 32-bit machine
// words, so corruption operates on the low 32 bits.
func (t FaultType) Apply(v uint64) uint64 {
	switch t {
	case ZeroBits:
		return 0
	case OneBits:
		return 0xFFFFFFFF
	case FlipBits:
		return uint64(^uint32(v))
	default:
		return v
	}
}

// FaultSpec identifies a single fault: which function, which parameter,
// which invocation, which corruption.
type FaultSpec struct {
	Function   string    `json:"function"`
	Param      int       `json:"param"`      // 0-based parameter index
	Invocation int       `json:"invocation"` // 1-based; the paper injects the first
	Type       FaultType `json:"type"`

	// Node addresses the fault to one cluster node's kernel (0-based).
	// Zero means node 0, which is also the only node of a single-host
	// run, so legacy four-field keys and fault lists parse unchanged.
	Node int `json:"node,omitempty"`
}

// String renders the spec in fault-list file syntax.
func (s FaultSpec) String() string {
	if s.Node != 0 {
		return fmt.Sprintf("%s p%d i%d %s node=%d", s.Function, s.Param, s.Invocation, s.Type, s.Node)
	}
	return fmt.Sprintf("%s p%d i%d %s", s.Function, s.Param, s.Invocation, s.Type)
}

// Key returns the canonical identity of the spec: the string two specs
// share exactly when they describe the same fault. It is the basis for
// cross-set run matching and for the journal fingerprint.
func (s FaultSpec) Key() string {
	if s.Node != 0 {
		return fmt.Sprintf("%s/%d/%d/%d/%d", s.Function, s.Param, s.Invocation, int(s.Type), s.Node)
	}
	return fmt.Sprintf("%s/%d/%d/%d", s.Function, s.Param, s.Invocation, int(s.Type))
}

// ParseKey inverts Key. The results journal records each planned job by
// key, so a resumed campaign can rebuild its fault list from the journal
// alone, with no dependency on the original fault-list file surviving.
func ParseKey(key string) (FaultSpec, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 4 && len(parts) != 5 {
		return FaultSpec{}, fmt.Errorf("fault key %q: want 4 or 5 fields", key)
	}
	param, err := strconv.Atoi(parts[1])
	if err != nil || param < 0 {
		return FaultSpec{}, fmt.Errorf("fault key %q: bad param", key)
	}
	inv, err := strconv.Atoi(parts[2])
	if err != nil || inv < 1 {
		return FaultSpec{}, fmt.Errorf("fault key %q: bad invocation", key)
	}
	typ, err := strconv.Atoi(parts[3])
	if err != nil || typ < 1 {
		return FaultSpec{}, fmt.Errorf("fault key %q: bad type", key)
	}
	node := 0
	if len(parts) == 5 {
		node, err = strconv.Atoi(parts[4])
		if err != nil || node < 0 {
			return FaultSpec{}, fmt.Errorf("fault key %q: bad node", key)
		}
	}
	return FaultSpec{Function: parts[0], Param: param, Invocation: inv, Type: FaultType(typ), Node: node}, nil
}

// ArmedEvent renders the fields of the fault-armed trace event that
// arms s: the spec in fault-list syntax, then its parameter index and
// invocation. The runner relabels a copied dormant run's arming with
// the same function, so the copy's trace reads as if s had been armed.
func (s FaultSpec) ArmedEvent() (name string, a, b uint64) {
	return s.String(), uint64(s.Param), uint64(s.Invocation)
}

// Fingerprint returns a short stable hash of Key — the identifier the
// results journal keys records by and the campaign engine includes in
// run-failure errors, so a failed run is greppable in the journal by the
// same string the error names.
func (s FaultSpec) Fingerprint() string {
	h := fnv.New64a()
	io.WriteString(h, s.Key())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TargetSelector decides whether a process belongs to the injection target.
// The paper's tool targets one process of the workload (e.g. the Apache
// management process but not its child, or vice versa).
type TargetSelector func(k *ntsim.Kernel, pid ntsim.PID, image string) bool

// ByImage targets every process running the named image.
func ByImage(image string) TargetSelector {
	return func(_ *ntsim.Kernel, _ ntsim.PID, img string) bool { return img == image }
}

// ParentProcessOf targets processes of the named image whose parent does
// NOT run the same image — i.e. the first/management process of a
// multi-process application (the paper's "Apache1").
func ParentProcessOf(image string) TargetSelector {
	return func(k *ntsim.Kernel, pid ntsim.PID, img string) bool {
		if img != image {
			return false
		}
		p := k.Process(pid)
		if p == nil {
			return false
		}
		parent := k.Process(p.Parent)
		return parent == nil || parent.Image != image
	}
}

// ChildProcessOf targets processes of the named image whose parent runs the
// same image — the spawned worker (the paper's "Apache2").
func ChildProcessOf(image string) TargetSelector {
	return func(k *ntsim.Kernel, pid ntsim.PID, img string) bool {
		if img != image {
			return false
		}
		p := k.Process(pid)
		if p == nil {
			return false
		}
		parent := k.Process(p.Parent)
		return parent != nil && parent.Image == image
	}
}

// Injector intercepts system calls of target processes, recording function
// activation and applying at most one fault per run.
type Injector struct {
	k      *ntsim.Kernel
	target TargetSelector
	spec   *FaultSpec

	counts    map[string]int
	activated map[string]bool
	injected  bool

	// tel is the kernel's telemetry collector captured at construction;
	// specStr is the fault spec pre-rendered once so the per-dispatch
	// path never formats. Both stay zero-cost when telemetry is off.
	tel     telemetry.Collector
	specStr string
}

var _ ntsim.SyscallInterceptor = (*Injector)(nil)

// New creates an injector for the given kernel and target. A nil spec makes
// the injector a pure observer (activation scan). When the kernel has a
// telemetry collector installed (install it first), arming is recorded
// as a fault-armed trace event so every later activation and injection
// pairs with exactly one arming.
func New(k *ntsim.Kernel, target TargetSelector, spec *FaultSpec) *Injector {
	if target == nil {
		panic("inject: nil target selector")
	}
	in := &Injector{
		k:         k,
		target:    target,
		spec:      spec,
		counts:    make(map[string]int),
		activated: make(map[string]bool),
		tel:       k.Telemetry(),
	}
	if spec != nil && in.tel.Enabled() {
		var a, b uint64
		in.specStr, a, b = spec.ArmedEvent()
		in.tel.Emit(k.Now(), 0, telemetry.KindFaultArmed, in.specStr, a, b)
		in.tel.Add(telemetry.CtrFaultArmed, 1)
	}
	return in
}

// BeforeSyscall implements ntsim.SyscallInterceptor.
func (in *Injector) BeforeSyscall(pid ntsim.PID, image, fn string, raw []uint64) {
	if !in.target(in.k, pid, image) {
		return
	}
	in.counts[fn]++
	in.activated[fn] = true
	if in.spec == nil || in.injected {
		return
	}
	s := in.spec
	if fn != s.Function || in.counts[fn] != s.Invocation {
		return
	}
	// The armed fault's target invocation has been reached, whether or
	// not the corruption can land (param may exceed the live arity).
	in.tel.Emit(in.k.Now(), uint32(pid), telemetry.KindFaultActivated, in.specStr,
		uint64(in.counts[fn]), 0)
	in.tel.Add(telemetry.CtrFaultActivated, 1)
	if s.Param < 0 || s.Param >= len(raw) {
		// The catalog over-approximated this function's arity; the
		// fault cannot land. Count it as not injected so the
		// controller can classify the run as non-activated.
		return
	}
	before := raw[s.Param]
	raw[s.Param] = s.Type.Apply(before)
	in.injected = true
	in.tel.Emit(in.k.Now(), uint32(pid), telemetry.KindFaultInjected, in.specStr,
		before, raw[s.Param])
	in.tel.Add(telemetry.CtrFaultInjected, 1)
}

// Injected reports whether the configured fault actually fired.
func (in *Injector) Injected() bool { return in.injected }

// Activated reports whether the target called fn at least once.
func (in *Injector) Activated(fn string) bool { return in.activated[fn] }

// ActivatedFunctions returns the set of functions the target called.
func (in *Injector) ActivatedFunctions() map[string]bool {
	out := make(map[string]bool, len(in.activated))
	for fn := range in.activated {
		out[fn] = true
	}
	return out
}

// ActivatedCount reports how many distinct functions the target called
// (the paper's Table 1 metric).
func (in *Injector) ActivatedCount() int { return len(in.activated) }

// CallCount reports how many times the target called fn.
func (in *Injector) CallCount(fn string) int { return in.counts[fn] }
