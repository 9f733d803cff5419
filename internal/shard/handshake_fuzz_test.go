package shard

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// macToken in a fuzzed hello stands for the right MAC of the challenge
// the server under test just sent, so the fuzzer reaches the accepting
// path too.
const macToken = "$MAC"

// scriptedConn is one end of a handshake whose peer speaks a fixed
// script: reads return the script, with every macToken replaced by the
// right MAC for the challenge already written to the conn, and writes
// are recorded.
type scriptedConn struct {
	net.Conn // nil: the handshake calls only Read, Write and SetDeadline
	key      string
	script   []byte
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if c.in == nil {
		c.in = bytes.NewReader(withMAC(c.script, c.key, c.out.Bytes()))
	}
	return c.in.Read(p)
}

func (c *scriptedConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c *scriptedConn) SetDeadline(time.Time) error { return nil }

// withMAC replaces every macToken in script with the MAC of the nonce
// in the challenge that opens sent.
func withMAC(script []byte, key string, sent []byte) []byte {
	return bytes.ReplaceAll(script, []byte(macToken), []byte(nonceMAC(key, firstCtrl(sent).Nonce)))
}

// firstCtrl decodes the first line of b as a handshake line (zero when
// it does not decode).
func firstCtrl(b []byte) ctrl {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	var c ctrl
	if json.Unmarshal(line, &c) != nil {
		return ctrl{}
	}
	return c
}

// recordingConn records what one end of a real connection writes.
type recordingConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.Conn.Write(p)
}

// realExchange runs one successful handshake over an in-memory
// connection and returns what each side wrote: the client's hello, and
// the server's challenge and welcome (sent as handleConn sends it).
func realExchange(tb testing.TB, key string) (hello, server []byte) {
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	srv := &recordingConn{Conn: srvEnd}
	go func() {
		defer srvEnd.Close()
		if _, err := NewWorkerServer(key, nil).authenticate(srv); err == nil {
			writeCtrl(srv, ctrl{Dts: "welcome"})
		}
	}()
	cli := &recordingConn{Conn: cliEnd}
	if _, err := handshake(cli, key); err != nil {
		tb.Fatalf("real handshake: %v", err)
	}
	return cli.wrote.Bytes(), srv.wrote.Bytes()
}

// FuzzHandshake feeds arbitrary hello bytes to the server half
// (WorkerServer.authenticate) and arbitrary challenge and verdict bytes
// to the client half (handshake), seeded from a real exchange. Neither
// side may panic; the server may accept only a hello line that carries
// the MAC of its own challenge, and the client may accept only a
// welcome after answering the challenge with its MAC.
func FuzzHandshake(f *testing.F) {
	const key = "fuzz-key"
	hello, server := realExchange(f, key)
	f.Add(hello, server) // the MAC of another challenge's nonce
	f.Add(bytes.ReplaceAll(hello, []byte(nonceMAC(key, firstCtrl(server).Nonce)), []byte(macToken)), server)
	f.Add([]byte(`{"dts":"hello","mac":"`+macToken+`"}`), []byte(`{"dts":"challenge","nonce":"00"}`+"\n"+`{"dts":"denied","msg":"no"}`+"\n"))
	f.Add([]byte(`{"dts":"welcome","mac":"`+macToken+`"}`+"\n"), []byte(`{"dts":"welcome"}`+"\n"))
	f.Add([]byte("\n"), []byte("not json\n"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, hello, server []byte) {
		sc := &scriptedConn{key: key, script: hello}
		_, err := NewWorkerServer(key, nil).authenticate(sc)
		chal := firstCtrl(sc.out.Bytes())
		if chal.Dts != "challenge" || chal.Nonce == "" {
			t.Fatalf("server opened with %q, want a challenge", sc.out.Bytes())
		}
		if got := firstCtrl(withMAC(hello, key, sc.out.Bytes())); err == nil && (got.Dts != "hello" || got.MAC != nonceMAC(key, chal.Nonce)) {
			t.Fatalf("server accepted hello %+v without the MAC of its challenge", got)
		}

		cc := &scriptedConn{key: key, script: server}
		if _, err := handshake(cc, key); err == nil {
			want := ctrl{Dts: "hello", MAC: nonceMAC(key, firstCtrl(server).Nonce)}
			if got := firstCtrl(cc.out.Bytes()); got != want {
				t.Fatalf("client was welcomed after sending %+v, want %+v", got, want)
			}
		}
	})
}

// TestHandshakeLineBounded: the server reads a hello before it knows
// who is asking, so a peer that sends an endless line must cost it one
// read buffer, not memory without bound.
func TestHandshakeLineBounded(t *testing.T) {
	sc := &scriptedConn{script: bytes.Repeat([]byte("a"), 64<<10)}
	if _, err := NewWorkerServer("", nil).authenticate(sc); err == nil {
		t.Fatal("server accepted 64 KB of hello with no newline")
	}
	if read := len(sc.script) - sc.in.Len(); read > 4096 {
		t.Fatalf("server read %d bytes of an unterminated hello, want at most 4096", read)
	}
}
