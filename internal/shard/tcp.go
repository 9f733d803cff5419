package shard

// The TCP transport: the same Spawner seam as local pipes, stretched
// over a network. One authenticated connection is one worker's two
// pipes. A WorkerServer (dts -worker-listen) spawns a worker for each
// coordinator that passes the handshake and copies bytes both ways: the
// coordinator's half-close becomes the worker's stdin EOF, the worker's
// stdout EOF (clean exit or death) closes the connection, and a dropped
// connection kills the worker. Either way the server reaps the worker.
// TCPSpawner (coordinator -workers host:port) dials one connection per
// worker. The transport has no recovery of its own: a dropped
// connection ends the coordinator's result stream, which the fleet
// dispatcher treats as a worker death like any other — it respawns the
// slot and re-dispatches the chunk's uncommitted runs.
//
// Handshake (one JSON line each, deadline-bounded):
//
//	server → {"dts":"challenge","nonce":...}
//	client → {"dts":"hello","mac":HMAC-SHA256(key, nonce)}
//	server → {"dts":"welcome"}   (or {"dts":"denied","msg":...})
//
// After the welcome line the connection carries the worker's raw
// journal-format streams.

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// handshakeTimeout bounds the coordinator's dial and the
// challenge/hello/verdict exchange on both ends.
const handshakeTimeout = 5 * time.Second

// ctrl is a handshake line.
type ctrl struct {
	Dts   string `json:"dts"`
	Nonce string `json:"nonce,omitempty"`
	MAC   string `json:"mac,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

func writeCtrl(w io.Writer, c ctrl) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// readCtrl reads one line and decodes it as a handshake line.
func readCtrl(br *bufio.Reader) (ctrl, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return ctrl{}, err
	}
	var c ctrl
	if err := json.Unmarshal(line, &c); err != nil {
		return ctrl{}, fmt.Errorf("bad handshake line: %w", err)
	}
	return c, nil
}

// nonceMAC proves possession of the shared key for one challenge.
func nonceMAC(key, nonce string) string {
	m := hmac.New(sha256.New, []byte(key))
	io.WriteString(m, nonce)
	return hex.EncodeToString(m.Sum(nil))
}

// WorkerServer hosts fleet workers for remote coordinators — the body
// of dts -worker-listen.
type WorkerServer struct {
	key   string
	spawn Spawner

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewWorkerServer builds a server that authenticates coordinators with
// key (empty = unauthenticated, loopback testing only) and backs each
// connection with one spawned worker.
func NewWorkerServer(key string, spawn Spawner) *WorkerServer {
	if spawn == nil {
		spawn = InProcess()
	}
	return &WorkerServer{key: key, spawn: spawn, conns: make(map[net.Conn]struct{})}
}

// Serve accepts coordinator connections on ln until Close.
func (s *WorkerServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("worker server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.handleConn(c)
	}
}

// Close stops accepting and drops every connection, which kills its
// worker.
func (s *WorkerServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return nil
}

// track registers a live connection for Close; false once closing.
func (s *WorkerServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// release closes a connection and forgets it.
func (s *WorkerServer) release(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// handleConn runs one coordinator connection: authenticate, spawn the
// worker, bridge its pipes until either side ends, then kill and reap
// it.
func (s *WorkerServer) handleConn(c net.Conn) {
	if !s.track(c) {
		c.Close()
		return
	}
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	br, err := s.authenticate(c)
	if err != nil {
		s.release(c)
		return
	}
	worker, err := s.spawn()
	if err != nil {
		writeCtrl(c, ctrl{Dts: "denied", Msg: fmt.Sprintf("spawn worker: %v", err)})
		s.release(c)
		return
	}
	if writeCtrl(c, ctrl{Dts: "welcome"}) == nil {
		c.SetDeadline(time.Time{})
		go func() {
			// A clean EOF is the coordinator's half-close; any other
			// end is a dropped connection, and the worker dies with it.
			if _, err := io.Copy(worker.In, br); err != nil {
				worker.Kill()
			}
			worker.In.Close()
		}()
		// Returns when the worker's stdout ends (exit or death) or the
		// connection drops.
		io.Copy(c, worker.Out)
	}
	s.release(c)
	worker.Kill()
	worker.Wait()
}

// authenticate runs the server half of the handshake up to the
// verdict and returns the reader holding the connection's stream.
func (s *WorkerServer) authenticate(c net.Conn) (*bufio.Reader, error) {
	nonce := randHex(16)
	if err := writeCtrl(c, ctrl{Dts: "challenge", Nonce: nonce}); err != nil {
		return nil, err
	}
	br := bufio.NewReader(c)
	hello, err := readCtrl(br)
	if err != nil {
		return nil, err
	}
	if hello.Dts != "hello" || !hmac.Equal([]byte(nonceMAC(s.key, nonce)), []byte(hello.MAC)) {
		writeCtrl(c, ctrl{Dts: "denied", Msg: "authentication failed"})
		return nil, errors.New("authentication failed")
	}
	return br, nil
}

func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// TCPSpawner produces Conns that each dial addr and run one
// authenticated worker on the WorkerServer there. A failed dial or a
// refused handshake is a spawn failure; a connection that drops later
// ends the Conn's Out stream, which the fleet counts as a worker death.
func TCPSpawner(addr, key string) Spawner {
	return func() (*Conn, error) {
		c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		br, err := handshake(c, key)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("handshake with %s: %w", addr, err)
		}
		return &Conn{
			In:   tcpIn{c.(*net.TCPConn)},
			Out:  br,
			Kill: func() { c.Close() },
			Wait: func() error { return nil }, // the host reaps the worker
		}, nil
	}
}

// handshake runs the client half of the handshake and returns the
// reader holding the worker's output stream.
func handshake(c net.Conn, key string) (*bufio.Reader, error) {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(c)
	chal, err := readCtrl(br)
	if err != nil {
		return nil, err
	}
	if chal.Dts != "challenge" {
		return nil, fmt.Errorf("got %q, want a challenge", chal.Dts)
	}
	if err := writeCtrl(c, ctrl{Dts: "hello", MAC: nonceMAC(key, chal.Nonce)}); err != nil {
		return nil, err
	}
	verdict, err := readCtrl(br)
	if err != nil {
		return nil, err
	}
	if verdict.Dts != "welcome" {
		return nil, fmt.Errorf("refused (%s): %s", verdict.Dts, verdict.Msg)
	}
	c.SetDeadline(time.Time{})
	return br, nil
}

// tcpIn is the coordinator's assignment pipe: Close half-closes the
// connection, which the host turns into the worker's stdin EOF.
type tcpIn struct{ *net.TCPConn }

func (w tcpIn) Close() error { return w.CloseWrite() }
