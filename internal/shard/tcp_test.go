package shard

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntdts/internal/core"
)

// startWorkerServer runs a WorkerServer on a loopback port for the
// test's lifetime and returns its address.
func startWorkerServer(t *testing.T, key string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWorkerServer(key, InProcess())
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestTCPLoopbackMatchesUnsharded drives the whole fleet protocol over
// real TCP connections: four slots dialing one loopback worker server,
// artifacts byte-identical to the unsharded run.
func TestTCPLoopbackMatchesUnsharded(t *testing.T) {
	specs := campaignSpecs(80)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)

	addr := startWorkerServer(t, "fleet-test-key")
	spawner := TCPSpawner(addr, "fleet-test-key", TCPOptions{})
	f := NewFleet(FleetOptions{
		Spawners: []Spawner{spawner, spawner, spawner, spawner},
	})
	set, err := core.NewCampaign(newRunner(true),
		core.WithSpecs(specs),
		core.WithShardExecutor(f),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	archive, trace, metrics := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Error("TCP fleet archive differs from unsharded run")
	}
	if !bytes.Equal(trace, wantTrace) {
		t.Error("TCP fleet trace differs from unsharded run")
	}
	if metrics != wantMetrics {
		t.Error("TCP fleet metrics differ from unsharded run")
	}
	if st := set.Dispatch; st == nil || st.Transport != "tcp" || st.Workers != 4 {
		t.Fatalf("dispatch stats %+v, want tcp transport at 4 workers", set.Dispatch)
	}
}

// TestTCPAuthRejected: a coordinator with the wrong key is denied at
// the handshake — the session never reaches a worker.
func TestTCPAuthRejected(t *testing.T) {
	addr := startWorkerServer(t, "right-key")
	_, err := TCPSpawner(addr, "wrong-key", TCPOptions{})()
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("spawn error = %v, want a session-refused failure", err)
	}
}

// severingProxy forwards one backend connection at a time and kills the
// first sever.n server→client lines mid-stream — the torn-TCP drill.
type severingProxy struct {
	ln      net.Listener
	backend string
	once    sync.Once
	after   int64 // sever the connection after this many backend lines (first conn only)
	severed atomic.Bool
}

func (p *severingProxy) run() {
	first := true
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.bridge(c, first)
		first = false
	}
}

func (p *severingProxy) bridge(c net.Conn, sever bool) {
	b, err := net.Dial("tcp", p.backend)
	if err != nil {
		c.Close()
		return
	}
	go io.Copy(b, c) // client → backend, never severed
	var lines int64
	buf := make([]byte, 4096)
	for {
		n, err := b.Read(buf)
		if n > 0 {
			if _, werr := c.Write(buf[:n]); werr != nil {
				break
			}
			lines += int64(bytes.Count(buf[:n], []byte("\n")))
			if sever && lines >= p.after {
				p.severed.Store(true)
				break // drop both sides mid-session
			}
		}
		if err != nil {
			break
		}
	}
	c.Close()
	b.Close()
}

// TestTCPReconnectResume cuts the first coordinator connection after a
// handful of result lines. The client must redial, replay its input
// lines, resume the output stream at the acknowledged offset, and merge
// artifacts byte-identical to the unsharded run — the worker process
// itself never restarts.
func TestTCPReconnectResume(t *testing.T) {
	specs := campaignSpecs(60)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, _ := artifacts(t, base)

	backend := startWorkerServer(t, "resume-key")
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pln.Close() })
	proxy := &severingProxy{ln: pln, backend: backend, after: 8}
	go proxy.run()

	f := NewFleet(FleetOptions{
		Spawners: []Spawner{TCPSpawner(pln.Addr().String(), "resume-key", TCPOptions{
			RedialBackoff: 10 * time.Millisecond,
		})},
	})
	set, err := core.NewCampaign(newRunner(true),
		core.WithSpecs(specs),
		core.WithShardExecutor(f),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !proxy.severed.Load() {
		t.Fatal("proxy never severed the connection; the drill did not run")
	}
	archive, trace, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) || !bytes.Equal(trace, wantTrace) {
		t.Error("artifacts differ from unsharded run after reconnect-resume")
	}
	if st := set.Dispatch; st.WorkerDeaths != 0 || st.Degraded {
		t.Errorf("reconnect must be invisible to the fleet: %+v", st)
	}
}

// TestTCPRedialBudgetIsWorkerDeath: when the server is gone for good,
// the session dies after its redial budget and the fleet treats it as a
// worker death — here with no respawn budget either, the campaign
// degrades to in-process completion instead of failing.
func TestTCPRedialBudgetIsWorkerDeath(t *testing.T) {
	specs := campaignSpecs(10)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, _, _ := artifacts(t, base)

	// A server that dies after accepting the first session.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWorkerServer("k", InProcess())
	go srv.Serve(ln)
	addr := ln.Addr().String()

	killSrv := sync.OnceFunc(func() { srv.Close() })
	spawner := TCPSpawner(addr, "k", TCPOptions{
		RedialAttempts: 1, RedialBackoff: 5 * time.Millisecond, ConnectTimeout: 200 * time.Millisecond,
	})
	killing := func() (*Conn, error) {
		conn, err := spawner()
		if err != nil {
			return nil, err
		}
		out := conn.Out
		conn.Out = readerFunc(func(p []byte) (int, error) {
			n, err := out.Read(p)
			if n > 0 {
				killSrv() // first bytes seen: tear the whole server down
			}
			return n, err
		})
		return conn, nil
	}
	f := NewFleet(FleetOptions{
		Spawners:          []Spawner{killing},
		MaxRespawns:       1,
		ChunkRetries:      1,
		RedispatchBackoff: 5 * time.Millisecond,
		StallDeadline:     2 * time.Second,
	})
	set, err := core.NewCampaign(newRunner(true),
		core.WithSpecs(specs),
		core.WithShardExecutor(f),
	).Run(context.Background())
	if err != nil {
		t.Fatalf("lost server must degrade, not fail: %v", err)
	}
	archive, _, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Error("degraded completion archive differs from unsharded run")
	}
	st := set.Dispatch
	if !st.Degraded || st.WorkerDeaths < 1 || st.WorkersLost != 1 {
		t.Errorf("dispatch stats %+v, want a degraded run with the slot lost", st)
	}
}

// readerFunc adapts a closure to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
