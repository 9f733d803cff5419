package shard

// The process seam. A Conn is the coordinator's view of one worker:
// a pipe to write the assignment into, a pipe streaming results back,
// and kill/reap handles. Spawners produce Conns; everything above this
// file is transport-agnostic, so a future multi-machine executor only
// needs a Spawner that dials an address.

import (
	"io"
	"os"
	"os/exec"
)

// Conn is one live worker connection.
type Conn struct {
	// In carries the assignment (header line, then plan lines) to the
	// worker.
	In io.WriteCloser
	// Out streams the worker's journal-format records back.
	Out io.Reader
	// Kill forcibly terminates the worker (SIGKILL for processes). Safe
	// to call more than once and after the worker exited.
	Kill func()
	// Wait reaps the worker and returns its exit error, if any.
	Wait func() error
}

// Spawner starts one worker and returns its connection.
type Spawner func() (*Conn, error)

// Exec spawns a local child process worker. The child's stderr passes
// through to the coordinator's, so worker diagnostics stay visible.
func Exec(bin string, args ...string) Spawner {
	return func() (*Conn, error) {
		cmd := exec.Command(bin, args...)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &Conn{
			In:   stdin,
			Out:  stdout,
			Kill: func() { cmd.Process.Kill() },
			Wait: cmd.Wait,
		}, nil
	}
}

// SelfExec spawns the current binary as a worker — what dts -workers N
// uses, with args = ["-shard-worker"].
func SelfExec(args ...string) Spawner {
	return func() (*Conn, error) {
		bin, err := os.Executable()
		if err != nil {
			return nil, err
		}
		return Exec(bin, args...)()
	}
}

// InProcess runs ServeWorker in a goroutine over in-memory pipes: the
// full wire protocol with no process boundary. It is the registered
// default (safe in any binary) and what tests and benchmarks use; Kill
// severs both pipes, which is how a test simulates a dying worker.
func InProcess() Spawner {
	return func() (*Conn, error) {
		assignR, assignW := io.Pipe()
		resultR, resultW := io.Pipe()
		done := make(chan error, 1)
		go func() {
			err := ServeWorker(assignR, resultW)
			resultW.Close() // reader sees EOF, as after a process exit
			done <- err
		}()
		return &Conn{
			In:  assignW,
			Out: resultR,
			Kill: func() {
				// Sever both ends: the worker goroutine's next read or
				// write fails and it winds down; the coordinator's reader
				// sees the pipes close mid-record, like a SIGKILL.
				assignR.CloseWithError(io.ErrClosedPipe)
				resultW.CloseWithError(io.ErrUnexpectedEOF)
			},
			Wait: func() error { return <-done },
		}, nil
	}
}
