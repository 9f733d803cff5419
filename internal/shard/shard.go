// Package shard fans a campaign's fault plan out over worker processes.
//
// The paper's DTS confined a campaign to one machine and one process;
// at the ROADMAP's million-run scale a harness-level fault shares fate
// with every in-flight run. The work-stealing Fleet here hands bounded
// chunks of the prepared job list to worker processes (dts
// -shard-worker) on demand, over a pipe or a TCP session, and merges the
// streamed results back at their global job-list positions — so the
// archive, trace, and metrics are byte-identical to an unsharded run,
// the same guarantee the in-process pool gives at any parallelism.
//
// The wire format is the journal line format verbatim: a session opens
// with a header line, each chunk is a plan line (job keys with their
// global indices), and each completed run streams back as a run record
// carrying the same JSON payloads a journal would. A worker that is
// SIGKILLed or wedges mid-chunk is detected by the coordinator
// (heartbeat records, a stall deadline and a progress deadline); its
// streamed prefix is already merged — the stream is its own journal
// replay — so only the chunk's remaining specs are re-dispatched.
//
// Spawner is the process seam: Exec runs a local child, SelfExec
// re-executes the current binary with -shard-worker, TCPSpawner dials a
// dts -worker-listen host, and InProcess runs ServeWorker in a goroutine
// over pipes (the default, and what tests and benchmarks use).
package shard
