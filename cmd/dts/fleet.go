package main

// The -workers flag family: work-stealing campaign fleets. -workers runs
// the failure-adaptive dispatcher — bounded chunks on demand, lost
// chunks re-dispatched, straggler tails speculated, and in-process
// completion (exit code 5) when every worker budget is exhausted.
//
//	dts -config dts.cfg -workers 4            # 4 self-exec workers
//	dts -config dts.cfg -workers h1:9433,h2:9433  # TCP workers
//	dts -worker-listen :9433                  # host workers for the above
//
// TCP fleets authenticate with a shared key (-worker-key or
// DTS_WORKER_KEY). Each connection carries one worker, so a dropped
// connection is a worker death: the slot respawns and the chunk's
// uncommitted runs are re-dispatched.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"

	"ntdts/internal/core"
	"ntdts/internal/shard"
)

// fleetFlags carries the work-stealing fleet flag family.
type fleetFlags struct {
	workers string // "" = off; integer count or comma-separated host:port list
	key     string // shared TCP key ("" = DTS_WORKER_KEY)
	chaos   bool   // arm the DTS_SHARD_CHAOS_* drills
}

// options translates the flags into FleetOptions. An integer -workers
// spawns that many local dts worker processes; a comma-separated
// host:port list gives each address one slot, whose workers each dial
// a TCP connection of their own.
func (f fleetFlags) options(parallel int) (shard.FleetOptions, error) {
	opts := shard.FleetOptions{WorkerParallelism: parallel}
	if f.chaos {
		opts.ChaosKill = os.Getenv("DTS_SHARD_CHAOS_KILL")
		opts.ChaosHang = os.Getenv("DTS_SHARD_CHAOS_HANG")
		opts.ChaosSlow = os.Getenv("DTS_SHARD_CHAOS_SLOW")
	}
	if n, err := strconv.Atoi(f.workers); err == nil {
		if n < 1 {
			return opts, fmt.Errorf("-workers must be >= 1 (got %d)", n)
		}
		opts.Workers = n
		opts.Spawn = workerSpawner()
		return opts, nil
	}
	key := f.key
	if key == "" {
		key = os.Getenv("DTS_WORKER_KEY")
	}
	for _, addr := range strings.Split(f.workers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return opts, fmt.Errorf("-workers %q: %q is neither a worker count nor host:port", f.workers, addr)
		}
		opts.Spawners = append(opts.Spawners, shard.TCPSpawner(addr, key))
	}
	if len(opts.Spawners) == 0 {
		return opts, fmt.Errorf("-workers %q names no workers", f.workers)
	}
	return opts, nil
}

// printFleetSummary renders the dispatch statistics under the campaign
// summary — a clean fleet run and a degraded one read differently on
// purpose.
func printFleetSummary(st *core.DispatchStats, out io.Writer) {
	if st == nil {
		return
	}
	fmt.Fprintf(out, "\nfleet: %d workers (%s), %d chunks, %d redispatched, %d speculated, %d worker deaths, %d slots lost\n",
		st.Workers, st.Transport, st.Chunks, st.Redispatched, st.Speculated, st.WorkerDeaths, st.WorkersLost)
	if st.Degraded {
		fmt.Fprintf(out, "fleet: DEGRADED — %d runs finished in-process after worker budgets were exhausted\n", st.LocalRuns)
	}
}

// fleetExit maps a degraded fleet completion to its dedicated exit
// code; a clean completion exits 0.
func fleetExit(st *core.DispatchStats) error {
	if st == nil || !st.Degraded {
		return nil
	}
	return &exitError{code: exitDegraded,
		msg: fmt.Sprintf("campaign completed degraded: %d runs in-process after worker budgets exhausted (results are still complete and byte-identical)", st.LocalRuns)}
}

// runWorkerListen hosts fleet workers for remote coordinators until the
// context (SIGINT/SIGTERM) ends it — the long-running host half of
// -workers host:port.
func runWorkerListen(ctx context.Context, addr, key string, progress func(string)) error {
	if key == "" {
		key = os.Getenv("DTS_WORKER_KEY")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := shard.NewWorkerServer(key, workerSpawner())
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if key == "" {
		progress("worker server listening on " + ln.Addr().String() + " (UNAUTHENTICATED: set -worker-key or DTS_WORKER_KEY)")
	} else {
		progress("worker server listening on " + ln.Addr().String())
	}
	return srv.Serve(ln)
}
