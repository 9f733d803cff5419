package core

// The shard executor seam. Sharded execution lives in internal/shard,
// which imports core for the campaign plumbing — so core cannot import
// it back. Callers hand Campaign.Run an executor through
// WithShardExecutor; DispatchReporter is the optional extension
// Campaign.Run queries afterwards to surface how the fleet behaved —
// chunks redispatched, workers lost, whether the campaign finished
// degraded. The stats ride SetResult outside the JSON archive, so
// archives stay byte-identical at any fleet shape.

import "context"

// ShardExecutor executes a prepared campaign's uncommitted jobs
// (p.Ledger().Pending()) across worker processes, commits every run
// through p.Ledger() — the commit path the in-process pool uses — and
// returns the ledger's results in job order.
type ShardExecutor interface {
	ExecuteShards(ctx context.Context, c *Campaign, p *Prepared) ([]RunResult, error)
}

// DispatchStats summarizes one fleet execution.
type DispatchStats struct {
	// Workers is the fleet size (dispatch slots).
	Workers int
	// Chunks counts fresh chunks carved from the job list, the
	// in-process drain's included.
	Chunks int
	// Redispatched counts lost chunks whose uncommitted remainder went
	// back to the queue (worker death, torn stream, stall or progress
	// deadline).
	Redispatched int
	// Speculated counts speculative re-issues of straggler tail chunks.
	Speculated int
	// WorkerDeaths counts worker sessions that died or were killed.
	WorkerDeaths int
	// WorkersLost counts slots whose respawn budget was exhausted and
	// that left the fleet for good.
	WorkersLost int
	// LocalRuns counts runs committed by the in-process drain: the
	// session the last slot to exhaust its respawn budget runs on an
	// in-process worker — the graceful-degradation path.
	LocalRuns int
	// Degraded reports that the campaign completed but needed the
	// in-process drain (LocalRuns > 0).
	Degraded bool
	// Transport names the worker transport ("inprocess", "exec", "tcp").
	Transport string
}

// DispatchReporter is implemented by shard executors that can describe
// their last execution. Campaign.Run attaches the stats to the
// SetResult when the executor offers them.
type DispatchReporter interface {
	DispatchStats() *DispatchStats
}
