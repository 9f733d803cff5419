package ntsim

// addrSpace models a process address space just deeply enough for pointer-
// parameter fault injection. Buffers and strings passed to system calls are
// registered at fake virtual addresses; the raw address travels through the
// interception layer where it may be corrupted. On the way back in, the
// kernel resolves the (possibly corrupted) address:
//
//   - the registered address        -> the original Go buffer
//   - 0 (NULL, from a zero fault)   -> nil, which APIs either reject with
//     ERROR_INVALID_PARAMETER/ERROR_NOACCESS or treat as an access violation
//   - anything else (ones / flip)   -> unmapped memory: access violation
//
// This reproduces exactly the consequence classes a real interposition
// injector produces on NT: error return, AV crash, or (for size/flag
// parameters) silently wrong behaviour.
type addrSpace struct {
	next    uint64
	regions map[uint64]*region
}

type region struct {
	base uint64
	data []byte
	str  string
	kind regionKind
}

type regionKind int

const (
	regionBuf regionKind = iota + 1
	regionStr
)

const addrBase = 0x0040_0000 // traditional Win32 image base

func newAddrSpace() *addrSpace {
	return &addrSpace{next: addrBase, regions: make(map[uint64]*region)}
}

// MapBuf registers a byte buffer and returns its fake address. A nil buffer
// maps to NULL.
func (a *addrSpace) MapBuf(data []byte) uint64 {
	if data == nil {
		return 0
	}
	a.next += 0x1000 // page-align so corrupted addresses miss reliably
	r := &region{base: a.next, data: data, kind: regionBuf}
	a.regions[r.base] = r
	a.next += uint64(len(data))
	return r.base
}

// MapStr registers a NUL-terminated string parameter.
func (a *addrSpace) MapStr(s string) uint64 {
	a.next += 0x1000
	r := &region{base: a.next, str: s, kind: regionStr}
	a.regions[r.base] = r
	a.next += uint64(len(s)) + 1
	return r.base
}

// Buf resolves an address back to its registered buffer.
// ok=false distinguishes an unmapped address (access violation) from NULL.
func (a *addrSpace) Buf(addr uint64) (data []byte, null, ok bool) {
	if addr == 0 {
		return nil, true, true
	}
	r, found := a.regions[addr]
	if !found || r.kind != regionBuf {
		return nil, false, false
	}
	return r.data, false, true
}

// Str resolves an address back to its registered string.
func (a *addrSpace) Str(addr uint64) (s string, null, ok bool) {
	if addr == 0 {
		return "", true, true
	}
	r, found := a.regions[addr]
	if !found || r.kind != regionStr {
		return "", false, false
	}
	return r.str, false, true
}

// Release unregisters a transient parameter mapping. Addresses are never
// reused, so stale raws cannot alias later allocations.
func (a *addrSpace) Release(addr uint64) {
	delete(a.regions, addr)
}
