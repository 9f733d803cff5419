package shard

// The TCP transport: the same Spawner seam as local pipes, stretched
// over a network. A WorkerServer (dts -worker-listen) accepts
// authenticated coordinator connections and backs each session with a
// locally spawned worker; TCPSpawner (coordinator -workers host:port)
// produces Conns that dial one session each. Both sides count lines —
// the session's input (assignment) and output (result) streams are
// journal-format JSONL, one Write per line — so a dropped connection
// resumes exactly where it tore: the client redials, proves possession
// of the shared key again, announces how many output lines it already
// holds, learns how many input lines the server consumed, and both
// sides replay their logged remainder. The worker process underneath
// never notices. A connection that cannot be re-established within the
// redial budget surfaces as a dead worker, which the fleet dispatcher
// already survives.
//
// Handshake (one JSON line each, deadline-bounded):
//
//	server → {"dts":"challenge","nonce":...}
//	client → {"dts":"hello","session":...,"mac":HMAC-SHA256(key, nonce:session),"have":outLines}
//	server → {"dts":"welcome","in":inLines}   (or {"dts":"denied","msg":...})
//
// After the handshake the streams are raw worker lines, plus two
// client control lines: {"dts":"eof"} (assignment complete — close the
// worker's stdin) and {"dts":"kill"} (destroy the session). Control
// lines are distinguishable by prefix: worker lines always start
// {"kind": — and they count toward the input line total like any other
// line, so replay offsets stay aligned.

import (
	"bufio"
	"bytes"
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

// TCP transport defaults.
const (
	DefaultConnectTimeout   = 5 * time.Second
	DefaultHandshakeTimeout = 5 * time.Second
	DefaultRedialAttempts   = 3
	DefaultRedialBackoff    = 200 * time.Millisecond
	// sessionReapDelay is how long a detached server session waits for
	// a reconnect before its worker is destroyed.
	sessionReapDelay = 2 * time.Minute
)

// ctrl is a transport control line. The "dts" field is first so every
// control line starts with the {"dts": prefix worker lines never have.
type ctrl struct {
	Dts     string `json:"dts"`
	Nonce   string `json:"nonce,omitempty"`
	Session string `json:"session,omitempty"`
	MAC     string `json:"mac,omitempty"`
	Have    int    `json:"have,omitempty"`
	In      int    `json:"in,omitempty"`
	Msg     string `json:"msg,omitempty"`
}

var ctrlPrefix = []byte(`{"dts":`)

func writeCtrl(w io.Writer, c ctrl) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// readCtrl reads one line and decodes it as a control line.
func readCtrl(br *bufio.Reader) (ctrl, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return ctrl{}, err
	}
	var c ctrl
	if err := json.Unmarshal(line, &c); err != nil {
		return ctrl{}, fmt.Errorf("bad control line: %w", err)
	}
	return c, nil
}

// sessionMAC authenticates a session against the shared key.
func sessionMAC(key, nonce, session string) string {
	m := hmac.New(sha256.New, []byte(key))
	io.WriteString(m, nonce+":"+session)
	return hex.EncodeToString(m.Sum(nil))
}

func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// WorkerServer hosts worker sessions for remote coordinators — the
// body of dts -worker-listen.
type WorkerServer struct {
	key              string
	spawn            Spawner
	handshakeTimeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	sessions map[string]*tcpSession
	closed   bool
}

// NewWorkerServer builds a server that authenticates coordinators with
// key (empty = unauthenticated, loopback testing only) and backs each
// session with one spawned worker.
func NewWorkerServer(key string, spawn Spawner) *WorkerServer {
	if spawn == nil {
		spawn = InProcess()
	}
	return &WorkerServer{
		key:              key,
		spawn:            spawn,
		handshakeTimeout: DefaultHandshakeTimeout,
		sessions:         make(map[string]*tcpSession),
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *WorkerServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
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

// Addr returns the listening address (nil before Serve).
func (s *WorkerServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and destroys every session.
func (s *WorkerServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	sessions := make([]*tcpSession, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*tcpSession)
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.destroy()
	}
	return nil
}

// handleConn runs one coordinator connection: handshake, then bridge.
func (s *WorkerServer) handleConn(c net.Conn) {
	defer func() {
		// The bridge loop closes c on its own paths; this is the
		// handshake-failure backstop.
	}()
	c.SetDeadline(time.Now().Add(s.handshakeTimeout))
	br := bufio.NewReader(c)
	nonce := randHex(16)
	if writeCtrl(c, ctrl{Dts: "challenge", Nonce: nonce}) != nil {
		c.Close()
		return
	}
	hello, err := readCtrl(br)
	if err != nil || hello.Dts != "hello" || hello.Session == "" {
		c.Close()
		return
	}
	want := sessionMAC(s.key, nonce, hello.Session)
	if !hmac.Equal([]byte(want), []byte(hello.MAC)) {
		writeCtrl(c, ctrl{Dts: "denied", Msg: "authentication failed"})
		c.Close()
		return
	}
	sess, err := s.session(hello.Session)
	if err != nil {
		writeCtrl(c, ctrl{Dts: "denied", Msg: err.Error()})
		c.Close()
		return
	}
	gen, inCount := sess.attach(c)
	if err := writeCtrl(c, ctrl{Dts: "welcome", In: inCount}); err != nil {
		sess.detach(gen)
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	go sess.sendLoop(c, gen, hello.Have)
	s.recvLoop(sess, c, br, gen)
}

// session finds or creates the named session.
func (s *WorkerServer) session(id string) (*tcpSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("worker server closing")
	}
	if sess, ok := s.sessions[id]; ok {
		return sess, nil
	}
	conn, err := s.spawn()
	if err != nil {
		return nil, fmt.Errorf("spawn worker: %v", err)
	}
	sess := newTCPSession(conn, func() {
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
	})
	s.sessions[id] = sess
	go sess.pumpOutput()
	return sess, nil
}

// recvLoop forwards coordinator lines into the session's worker.
func (s *WorkerServer) recvLoop(sess *tcpSession, c net.Conn, br *bufio.Reader, gen int) {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			sess.detach(gen)
			c.Close()
			return
		}
		if bytes.HasPrefix(line, ctrlPrefix) {
			var cc ctrl
			if json.Unmarshal(line, &cc) != nil {
				sess.detach(gen)
				c.Close()
				return
			}
			switch cc.Dts {
			case "eof":
				sess.consumeCtrl(func() { sess.closeIn() })
			case "kill":
				sess.destroy()
				c.Close()
				return
			default:
				sess.consumeCtrl(func() {}) // unknown control: count and ignore
			}
			continue
		}
		if err := sess.consumeLine(line); err != nil {
			// Worker stdin gone (worker died); keep streaming output —
			// the tail of a crashed worker is still evidence.
			continue
		}
	}
}

// tcpSession is one worker plus its replayable line logs.
type tcpSession struct {
	worker *Conn
	reap   func()

	mu        sync.Mutex
	cond      *sync.Cond
	inCount   int // coordinator lines consumed (worker-bound and control)
	inClosed  bool
	out       [][]byte // every worker output line, for replay
	outDone   bool
	sent      int // high-water mark of out lines delivered to any conn
	curGen    int
	curConn   net.Conn
	destroyed bool
	reapTimer *time.Timer
}

func newTCPSession(worker *Conn, reap func()) *tcpSession {
	sess := &tcpSession{worker: worker, reap: reap}
	sess.cond = sync.NewCond(&sess.mu)
	return sess
}

// pumpOutput buffers every worker output line for delivery and replay.
func (t *tcpSession) pumpOutput() {
	br := bufio.NewReader(t.worker.Out)
	for {
		line, err := br.ReadBytes('\n')
		t.mu.Lock()
		if len(line) > 0 && line[len(line)-1] == '\n' {
			t.out = append(t.out, line)
		}
		if err != nil {
			t.outDone = true
			t.cond.Broadcast()
			t.mu.Unlock()
			return
		}
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// attach makes c the session's live connection, superseding any prior
// one, and returns the attachment generation plus the input line count
// for the welcome line.
func (t *tcpSession) attach(c net.Conn) (gen, inCount int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.curConn != nil {
		t.curConn.Close() // unblock the stale receiver
	}
	if t.reapTimer != nil {
		t.reapTimer.Stop()
		t.reapTimer = nil
	}
	t.curGen++
	t.curConn = c
	t.cond.Broadcast()
	return t.curGen, t.inCount
}

// detach ends an attachment. The worker stays alive awaiting a
// reconnect, unless its stream is fully delivered (clean completion)
// or no coordinator returns within the reap delay.
func (t *tcpSession) detach(gen int) {
	t.mu.Lock()
	if gen != t.curGen || t.destroyed {
		t.mu.Unlock()
		return
	}
	t.curConn = nil
	done := t.outDone && t.sent >= len(t.out)
	if !done && t.reapTimer == nil {
		t.reapTimer = time.AfterFunc(sessionReapDelay, t.destroy)
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	if done {
		t.destroy()
	}
}

// sendLoop streams out lines [have:] to c while it remains the live
// attachment.
func (t *tcpSession) sendLoop(c net.Conn, gen, have int) {
	i := have
	for {
		t.mu.Lock()
		for gen == t.curGen && !t.destroyed && i >= len(t.out) && !t.outDone {
			t.cond.Wait()
		}
		if gen != t.curGen || t.destroyed {
			t.mu.Unlock()
			return
		}
		if i >= len(t.out) && t.outDone {
			t.mu.Unlock()
			return // fully delivered; the client closes when satisfied
		}
		line := t.out[i]
		t.mu.Unlock()
		if _, err := c.Write(line); err != nil {
			return // receiver handles the detach
		}
		i++
		t.mu.Lock()
		if i > t.sent {
			t.sent = i
		}
		t.mu.Unlock()
	}
}

// consumeLine counts and forwards one worker-bound line.
func (t *tcpSession) consumeLine(line []byte) error {
	t.mu.Lock()
	t.inCount++
	closed := t.inClosed
	t.mu.Unlock()
	if closed {
		return errors.New("assignment stream closed")
	}
	_, err := t.worker.In.Write(line)
	return err
}

// consumeCtrl counts one control line and applies it.
func (t *tcpSession) consumeCtrl(apply func()) {
	t.mu.Lock()
	t.inCount++
	t.mu.Unlock()
	apply()
}

func (t *tcpSession) closeIn() {
	t.mu.Lock()
	if t.inClosed {
		t.mu.Unlock()
		return
	}
	t.inClosed = true
	t.mu.Unlock()
	t.worker.In.Close()
}

// destroy kills the worker and forgets the session.
func (t *tcpSession) destroy() {
	t.mu.Lock()
	if t.destroyed {
		t.mu.Unlock()
		return
	}
	t.destroyed = true
	if t.curConn != nil {
		t.curConn.Close()
	}
	if t.reapTimer != nil {
		t.reapTimer.Stop()
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	t.worker.Kill()
	t.reap()
}

// TCPOptions tune the coordinator side of the transport.
type TCPOptions struct {
	// ConnectTimeout bounds each dial (0 = DefaultConnectTimeout).
	ConnectTimeout time.Duration
	// HandshakeTimeout bounds challenge/welcome plus replay (0 =
	// DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
	// RedialAttempts is the reconnect budget per session (0 =
	// DefaultRedialAttempts; < 0 disables reconnects).
	RedialAttempts int
	// RedialBackoff is the pause between redials (0 =
	// DefaultRedialBackoff).
	RedialBackoff time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.ConnectTimeout == 0 {
		o.ConnectTimeout = DefaultConnectTimeout
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if o.RedialAttempts == 0 {
		o.RedialAttempts = DefaultRedialAttempts
	}
	if o.RedialAttempts < 0 {
		o.RedialAttempts = 0
	}
	if o.RedialBackoff == 0 {
		o.RedialBackoff = DefaultRedialBackoff
	}
	return o
}

// TCPSpawner produces Conns that each run one authenticated worker
// session on a remote WorkerServer. The first dial must succeed (a
// spawn failure, to the fleet); later drops redial and resume within
// the session's budget.
func TCPSpawner(addr, key string, opts TCPOptions) Spawner {
	opts = opts.withDefaults()
	return func() (*Conn, error) {
		c := &tcpClient{
			addr: addr, key: key, session: randHex(16), opts: opts,
		}
		c.outR, c.outW = io.Pipe()
		if err := c.connectLocked(); err != nil {
			return nil, err
		}
		go c.pump()
		return &Conn{
			In:   tcpIn{c},
			Out:  c.outR,
			Kill: c.kill,
			Wait: c.wait,
		}, nil
	}
}

// tcpClient is the coordinator's resumable end of one session.
type tcpClient struct {
	addr, key, session string
	opts               TCPOptions

	outR *io.PipeReader
	outW *io.PipeWriter

	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader // reader paired with conn (holds handshake leftovers)
	gen      int
	inLines  [][]byte // every input line sent, for replay
	outCount int      // output lines received (pump only writes, handshake reads under mu)
	redials  int
	killed   bool
	dead     error

	pumpDone chan struct{}
	pumpOnce sync.Once
}

// connectLocked dials, handshakes and replays. Caller must hold mu —
// except on first use, before pump starts.
func (c *tcpClient) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.ConnectTimeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	conn.SetDeadline(time.Now().Add(c.opts.HandshakeTimeout))
	br := bufio.NewReader(conn)
	chal, err := readCtrl(br)
	if err != nil || chal.Dts != "challenge" {
		conn.Close()
		return fmt.Errorf("handshake with %s: no challenge", c.addr)
	}
	hello := ctrl{
		Dts: "hello", Session: c.session,
		MAC: sessionMAC(c.key, chal.Nonce, c.session), Have: c.outCount,
	}
	if err := writeCtrl(conn, hello); err != nil {
		conn.Close()
		return fmt.Errorf("handshake with %s: %w", c.addr, err)
	}
	welcome, err := readCtrl(br)
	if err != nil {
		conn.Close()
		return fmt.Errorf("handshake with %s: %w", c.addr, err)
	}
	if welcome.Dts != "welcome" {
		conn.Close()
		return fmt.Errorf("session refused by %s: %s", c.addr, welcome.Msg)
	}
	if welcome.In > len(c.inLines) {
		conn.Close()
		return fmt.Errorf("session with %s diverged: server consumed %d lines, sent %d", c.addr, welcome.In, len(c.inLines))
	}
	for _, line := range c.inLines[welcome.In:] {
		if _, err := conn.Write(line); err != nil {
			conn.Close()
			return fmt.Errorf("replay to %s: %w", c.addr, err)
		}
	}
	conn.SetDeadline(time.Time{})
	c.conn, c.gen = conn, c.gen+1
	// Buffered handshake bytes beyond the welcome line are worker
	// output; hand the reader to the pump via the connection wrapper.
	c.br = br
	return nil
}

// pump moves worker output lines from the network to the Out pipe,
// reconnecting on drops until the session dies for good.
func (c *tcpClient) pump() {
	c.pumpOnce.Do(func() { c.pumpDone = make(chan struct{}) })
	defer close(c.pumpDone)
	for {
		c.mu.Lock()
		conn, gen, br := c.conn, c.gen, c.br
		c.mu.Unlock()
		if conn == nil {
			c.outW.CloseWithError(io.ErrUnexpectedEOF)
			return
		}
		line, err := br.ReadBytes('\n')
		if err == nil {
			c.mu.Lock()
			c.outCount++
			c.mu.Unlock()
			if _, werr := c.outW.Write(line); werr != nil {
				return // coordinator stopped reading (killed)
			}
			continue
		}
		if !c.reconnect(gen) {
			c.mu.Lock()
			dead := c.dead
			c.mu.Unlock()
			if dead == nil {
				dead = err
			}
			c.outW.CloseWithError(dead)
			return
		}
	}
}

// reconnect replaces a broken connection generation. Returns false when
// the session is dead (killed, or redial budget exhausted).
func (c *tcpClient) reconnect(brokenGen int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed || c.dead != nil {
		return false
	}
	if c.gen != brokenGen {
		return true // already replaced
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	var lastErr error = io.ErrUnexpectedEOF
	for c.redials < c.opts.RedialAttempts {
		c.redials++
		c.mu.Unlock()
		time.Sleep(c.opts.RedialBackoff)
		c.mu.Lock()
		if c.killed {
			return false
		}
		if err := c.connectLocked(); err == nil {
			return true
		} else {
			lastErr = err
		}
	}
	c.dead = fmt.Errorf("session with %s lost after %d redials: %w", c.addr, c.redials, lastErr)
	return false
}

// send appends a line to the replay log and pushes it down the live
// connection; a push failure is deferred to the reconnect machinery.
func (c *tcpClient) send(line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return errors.New("session killed")
	}
	if c.dead != nil {
		return c.dead
	}
	c.inLines = append(c.inLines, line)
	if c.conn != nil {
		if _, err := c.conn.Write(line); err != nil {
			// Kick the pump off its blocking read; it reconnects and
			// replays this line.
			c.conn.Close()
			c.conn = nil
		}
	}
	return nil
}

func (c *tcpClient) kill() {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return
	}
	c.killed = true
	if c.conn != nil {
		data, _ := json.Marshal(ctrl{Dts: "kill"})
		c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		c.conn.Write(append(data, '\n'))
		c.conn.Close()
		c.conn = nil
	}
	c.mu.Unlock()
	c.outW.CloseWithError(io.ErrUnexpectedEOF)
	c.outR.CloseWithError(io.ErrUnexpectedEOF)
}

func (c *tcpClient) wait() error {
	c.pumpOnce.Do(func() { c.pumpDone = make(chan struct{}) })
	<-c.pumpDone
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// tcpIn adapts the client to the Conn.In seam. Every Write is exactly
// one journal line (the wire writer's invariant), which is what makes
// the replay log line-aligned.
type tcpIn struct{ c *tcpClient }

func (w tcpIn) Write(p []byte) (int, error) {
	line := append([]byte(nil), p...)
	if err := w.c.send(line); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w tcpIn) Close() error {
	data, _ := json.Marshal(ctrl{Dts: "eof"})
	return w.c.send(append(data, '\n'))
}
