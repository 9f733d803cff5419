package main

// Seam probes for the traced iteration. They measure the program from
// outside: the harness wraps public seams (the fleet's Spawner and
// ShardExecutor) and records nothing inside the program, so traced
// archives stay byte-identical. Every workload, traced or not, runs its
// campaigns through Campaign.Run.

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/journal"
	"ntdts/internal/shard"
)

// timedFleet times the fleet's ExecuteShards; the embedded Fleet keeps
// supplying DispatchStats, so the campaign still reports dispatch
// provenance through the wrapper.
type timedFleet struct {
	*shard.Fleet
	elapsed time.Duration
}

func (t *timedFleet) ExecuteShards(ctx context.Context, c *core.Campaign, p *core.Prepared) ([]core.RunResult, error) {
	start := time.Now()
	runs, err := t.Fleet.ExecuteShards(ctx, c, p)
	t.elapsed = time.Since(start)
	return runs, err
}

// wireProbe wraps the fleet's Spawner. It counts the bytes the
// coordinator sends each worker, and the bytes, lines and blocked-read
// time of every worker's result stream, classifying each line by the
// journal record kind it starts with.
type wireProbe struct {
	bytesOut, bytesIn, linesIn atomic.Int64
	heartbeats, dones          atomic.Int64
	runLines, dupRuns          atomic.Int64
	readWait                   atomic.Int64 // nanoseconds

	mu   sync.Mutex
	seen map[int]bool // run indices received so far
}

func newWireProbe() *wireProbe { return &wireProbe{seen: make(map[int]bool)} }

func (p *wireProbe) spawner(inner shard.Spawner) shard.Spawner {
	return func() (*shard.Conn, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		wrapped := *c
		wrapped.In = &countingWriter{WriteCloser: c.In, n: &p.bytesOut}
		wrapped.Out = &streamReader{r: c.Out, p: p}
		return &wrapped, nil
	}
}

// report adds the wire metrics to layers; jobs is the plan size.
func (p *wireProbe) report(layers map[string]float64, jobs int) {
	layers["shard.wire_bytes_in"] = float64(p.bytesIn.Load())
	layers["shard.wire_bytes_out"] = float64(p.bytesOut.Load())
	layers["shard.wire_lines_in"] = float64(p.linesIn.Load())
	layers["shard.wire_read_wait_s"] = time.Duration(p.readWait.Load()).Seconds()
	layers["shard.useful_ratio"] = ratio(jobs, int(p.runLines.Load()))
}

type countingWriter struct {
	io.WriteCloser
	n *atomic.Int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.WriteCloser.Write(b)
	w.n.Add(int64(n))
	return n, err
}

// lineHead is how much of each line the probe keeps to classify it:
// enough for `{"kind":"run","index":<n>`.
const lineHead = 48

type streamReader struct {
	r    io.Reader
	p    *wireProbe
	head []byte // first bytes of the line in progress
}

func (s *streamReader) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := s.r.Read(b)
	s.p.readWait.Add(int64(time.Since(start)))
	s.p.bytesIn.Add(int64(n))
	data := b[:n]
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		chunk := data
		if i >= 0 {
			chunk = data[:i]
		}
		if room := lineHead - len(s.head); room > 0 {
			s.head = append(s.head, chunk[:min(room, len(chunk))]...)
		}
		if i < 0 {
			break
		}
		s.p.line(s.head)
		s.head = s.head[:0]
		data = data[i+1:]
	}
	return n, err
}

// line classifies one complete stream line by its record kind.
func (p *wireProbe) line(head []byte) {
	p.linesIn.Add(1)
	rest, ok := bytes.CutPrefix(head, []byte(`{"kind":"`))
	if !ok {
		return
	}
	kind, rest, _ := bytes.Cut(rest, []byte(`"`))
	switch string(kind) {
	case journal.KindHeartbeat:
		p.heartbeats.Add(1)
	case journal.KindDone:
		p.dones.Add(1)
	case journal.KindRun:
		p.runLines.Add(1)
		digits, ok := bytes.CutPrefix(rest, []byte(`,"index":`))
		if !ok {
			return
		}
		end := bytes.IndexFunc(digits, func(r rune) bool { return r < '0' || r > '9' })
		if end < 0 {
			end = len(digits)
		}
		idx, err := strconv.Atoi(string(digits[:end]))
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.seen[idx] {
			p.dupRuns.Add(1)
		}
		p.seen[idx] = true
		p.mu.Unlock()
	}
}
