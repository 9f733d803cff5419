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

// startWorkerServer runs a WorkerServer backed by spawn on a loopback
// port for the test's lifetime and returns its address.
func startWorkerServer(t *testing.T, key string, spawn Spawner) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWorkerServer(key, spawn)
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

	addr := startWorkerServer(t, "fleet-test-key", InProcess())
	spawner := TCPSpawner(addr, "fleet-test-key")
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
// the handshake — the connection never reaches a worker.
func TestTCPAuthRejected(t *testing.T) {
	addr := startWorkerServer(t, "right-key", InProcess())
	_, err := TCPSpawner(addr, "wrong-key")()
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

// TestTCPDropIsWorkerDeath cuts the first coordinator connection after
// a handful of result lines. The drop is a worker death: the slot
// respawns over a fresh connection, the chunk's uncommitted runs are
// re-dispatched once, and the merged artifacts are byte-identical to
// the unsharded run.
func TestTCPDropIsWorkerDeath(t *testing.T) {
	specs := campaignSpecs(60)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, _ := artifacts(t, base)

	backend := startWorkerServer(t, "resume-key", InProcess())
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pln.Close() })
	proxy := &severingProxy{ln: pln, backend: backend, after: 8}
	go proxy.run()

	f := NewFleet(FleetOptions{
		Spawners: []Spawner{TCPSpawner(pln.Addr().String(), "resume-key")},
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
		t.Error("artifacts differ from unsharded run after a dropped connection")
	}
	if st := set.Dispatch; st.WorkerDeaths != 1 || st.Redispatched != 1 || st.Degraded {
		t.Errorf("dispatch stats %+v, want one worker death, one re-dispatch, no degradation", st)
	}
}

// TestTCPServerLossIsWorkerDeath: when the server goes away for good
// mid-campaign, the dropped connection is a worker death and the
// respawn cannot dial — with the respawn budget spent, the campaign
// degrades to in-process completion instead of failing.
func TestTCPServerLossIsWorkerDeath(t *testing.T) {
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
	spawner := TCPSpawner(addr, "k")
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
		Spawners:      []Spawner{killing},
		MaxRespawns:   1,
		StallDeadline: 2 * time.Second,
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

// TestTCPHostWorkerDeath: the host's first worker dies after five
// result lines. The host must close that worker's connection, so the
// coordinator sees the death at once — with both deadlines off nothing
// else could notice it — and the respawned worker finishes the
// campaign byte-identical to the unsharded run.
func TestTCPHostWorkerDeath(t *testing.T) {
	specs := campaignSpecs(40)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, _ := artifacts(t, base)

	inner := InProcess()
	var spawned atomic.Int32
	dying := func() (*Conn, error) {
		conn, err := inner()
		if err == nil && spawned.Add(1) == 1 {
			conn.Out = &severReader{r: conn.Out, kill: conn.Kill, after: 5}
		}
		return conn, err
	}
	addr := startWorkerServer(t, "death-key", dying)
	f := NewFleet(FleetOptions{
		Spawners:         []Spawner{TCPSpawner(addr, "death-key")},
		StallDeadline:    -1,
		ProgressDeadline: -1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	set, err := core.NewCampaign(newRunner(true),
		core.WithSpecs(specs),
		core.WithShardExecutor(f),
	).Run(ctx)
	if err != nil {
		t.Fatalf("campaign over a dying host worker: %v", err)
	}
	archive, trace, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) || !bytes.Equal(trace, wantTrace) {
		t.Error("artifacts differ from unsharded run after a host-side worker death")
	}
	if st := set.Dispatch; st.WorkerDeaths != 1 || st.Degraded {
		t.Errorf("dispatch stats %+v, want one worker death and no degradation", st)
	}
}

// TestTCPHostReapsWorkers: the host Waits once on every worker it
// spawned after that worker's connection ends — a clean 2-slot campaign,
// and one whose coordinator kills its first connection mid-chunk — and
// spawns nothing for a coordinator that fails the handshake.
func TestTCPHostReapsWorkers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deaths int // the coordinator severs its first connection when 1
	}{{"clean", 0}, {"killed", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var rc reapCounter
			addr := startWorkerServer(t, "reap-key", rc.wrap(InProcess()))
			tcp := TCPSpawner(addr, "reap-key")
			var dialed atomic.Int32
			spawn := func() (*Conn, error) {
				conn, err := tcp()
				if err == nil && tc.deaths > 0 && dialed.Add(1) == 1 {
					conn.Out = &severReader{r: conn.Out, kill: conn.Kill, after: 3}
				}
				return conn, err
			}
			set, err := fleetCampaign(t, 30, NewFleet(FleetOptions{
				Spawners: []Spawner{spawn, spawn},
			}))
			if err != nil {
				t.Fatal(err)
			}
			if st := set.Dispatch; st.WorkerDeaths != tc.deaths {
				t.Fatalf("dispatch stats %+v, want %d worker deaths", st, tc.deaths)
			}
			rc.mu.Lock()
			conns := append([]*reapedConn(nil), rc.conns...)
			rc.mu.Unlock()
			if len(conns) < 2 {
				t.Fatalf("host spawned %d workers, want at least 2", len(conns))
			}
			timeout := time.After(5 * time.Second)
			for i, c := range conns {
				select {
				case <-c.called:
				case <-timeout:
					waits := 0
					for _, c := range conns {
						waits += int(c.calls.Load())
					}
					t.Fatalf("host worker %d never reaped: spawns=%d waits=%d", i, len(conns), waits)
				}
			}
			for i, c := range conns {
				if n := c.calls.Load(); n != 1 {
					t.Errorf("host worker %d reaped %d times, want once", i, n)
				}
			}
		})
	}
	t.Run("denied", func(t *testing.T) {
		var rc reapCounter
		addr := startWorkerServer(t, "reap-key", rc.wrap(InProcess()))
		if _, err := TCPSpawner(addr, "wrong-key")(); err == nil {
			t.Fatal("wrong key admitted")
		}
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if n := len(rc.conns); n != 0 {
			t.Errorf("host spawned %d workers for a refused coordinator, want 0", n)
		}
	})
}

// readerFunc adapts a closure to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
