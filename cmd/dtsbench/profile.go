package main

// CPU-profile attribution. The traced iteration writes a runtime/pprof
// CPU profile; this file decodes just enough of the profile protobuf to
// rebuild each sample's stack of function names, then charges every
// sample to the innermost frame that belongs to one of the repository's
// modules. JSON, reflect, allocation and channel time thereby lands on
// the module that called into it; samples with no repository frame (GC
// workers, the scheduler) are charged to "runtime".

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// modulePrefix is the import-path prefix of the repository's modules;
// benchPackage is this harness's import path, which names its frames in
// test binaries (the command binary names them "main.").
const (
	modulePrefix = "ntdts/internal/"
	benchPackage = "ntdts/cmd/dtsbench"
)

// cpuModules are the attribution buckets, reported as cpu.<name>. A
// package not listed is charged to its nearest listed ancestor
// (apps/iis -> apps), else to "other"; "bench" is this harness and
// "runtime" everything with no repository frame.
var cpuModules = []string{
	"ntsim", "ntsim.win32", "ntsim.crt", "ntsim.cluster", "vclock", "inject",
	"middleware.watchd", "middleware.mscs", "scm", "eventlog", "apps", "workload",
	"httpwire", "sqlengine", "core", "telemetry", "journal", "shard", "replay",
	"experiments", "config", "other", "bench", "runtime",
}

// moduleOf maps one frame's function name to its bucket, or "" when the
// frame is outside the repository's modules.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPackage+".") {
		return "bench"
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rel := fn[len(modulePrefix):]
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(rel, '/')
	if dot := strings.IndexByte(rel[slash+1:], '.'); dot >= 0 {
		rel = rel[:slash+1+dot]
	}
	name := strings.ReplaceAll(rel, "/", ".")
	for {
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			return "other"
		}
		name = name[:i]
	}
}

// attribute charges each weighted stack (leaf first) to the innermost
// repository module frame and returns every bucket's share of the total
// weight. A stack whose only non-runtime frames are the harness's own is
// charged to "bench".
func attribute(stacks [][]string, weights []int64) map[string]float64 {
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total int64
	for i, stack := range stacks {
		bucket := "runtime"
		for _, fn := range stack {
			m := moduleOf(fn)
			if m == "" {
				continue
			}
			if m != "bench" {
				bucket = m
				break
			}
			if bucket == "runtime" {
				bucket = "bench"
			}
		}
		shares[bucket] += float64(weights[i])
		total += weights[i]
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= float64(total)
		}
	}
	return shares
}

// readProfile decodes a gzip-compressed pprof profile into stacks of
// function names (leaf first, inlined frames expanded innermost first)
// and each stack's sample count.
func readProfile(path string) (stacks [][]string, weights []int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, nil, fmt.Errorf("profile %s: %w", path, err)
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				if name := p.functions[fid]; name >= 0 && int(name) < len(p.strings) {
					stack = append(stack, p.strings[name])
				}
			}
		}
		var w int64
		if len(s.values) > 0 {
			w = s.values[0]
		}
		stacks = append(stacks, stack)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func() (*iterResult, error)) (*iterResult, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	res, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// pprofSample is one decoded Sample message.
type pprofSample struct {
	locations []uint64
	values    []int64
}

// pprofData holds the decoded subset of a Profile message: samples,
// each location's function ids (innermost first), each function's name
// index, and the string table.
type pprofData struct {
	samples   []pprofSample
	locations map[uint64][]uint64
	functions map[uint64]int64
	strings   []string
}

// Field numbers from the pprof profile.proto schema.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6
	sampleLocs   = 1
	sampleValues = 2
	locationID   = 1
	locationLine = 4
	lineFunction = 1
	functionID   = 1
	functionName = 2
	wireVarint   = 0
	wireFixed64  = 1
	wireBytes    = 2
	wireFixed32  = 5
)

var errTruncated = errors.New("truncated protobuf")

func decodeProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, body []byte) error {
		switch field {
		case profSample:
			var s pprofSample
			err := eachField(body, func(f int, w int, v uint64, body []byte) error {
				switch f {
				case sampleLocs:
					return appendVarints(&s.locations, w, v, body)
				case sampleValues:
					var vals []uint64
					if err := appendVarints(&vals, w, v, body); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(body, func(f int, w int, v uint64, body []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(body, func(f int, w int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(body, func(f int, w int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, body []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		body = body[n:]
	}
	return nil
}

// eachField walks a protobuf message, handing fn each field's number,
// wire type, and its varint value or length-delimited body.
func eachField(b []byte, fn func(field int, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireFixed64, wireFixed32:
			size := 8
			if wire == wireFixed32 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
