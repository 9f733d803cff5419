package core

// Functional-options construction for Campaign. The struct accreted
// configuration field by field across the parallel engine, telemetry,
// supervisor, and shard work; NewCampaign is now the supported way to
// build one — options compose, validate at one point, and leave room to
// unexport fields later without breaking callers.

import (
	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
)

// Option configures a Campaign under construction.
type Option func(*Campaign)

// NewCampaign builds a campaign for one workload runner. With no
// options it is the full-catalog sequential sweep the paper ran.
func NewCampaign(r *Runner, opts ...Option) *Campaign {
	c := &Campaign{runner: r}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WithParallelism sets the worker-pool width (0 = all CPUs, 1 =
// sequential; results are byte-identical either way).
func WithParallelism(n int) Option {
	return func(c *Campaign) { c.parallelism = n }
}

// WithSupervision routes every run through the campaign supervisor
// (watchdog, quarantine, retries, journal, resume). A nil supervisor is
// a no-op, so callers can pass an optionally-built one straight through.
func WithSupervision(s *Supervisor) Option {
	return func(c *Campaign) { c.supervise = s }
}

// WithTelemetry enables per-run collection with the given options. The
// runner is cloned before the change so a shared Runner's options are
// never mutated behind another campaign's back, and the clone gets its
// own dormant-run cache so it never copies a run recorded under the old
// options.
func WithTelemetry(o telemetry.Options) Option {
	return func(c *Campaign) {
		c.runner = c.runner.Clone()
		c.runner.Opts.Telemetry = o
		c.runner.dormant = &dormantCache{}
	}
}

// WithProgress registers the serialized (done, total) progress callback.
func WithProgress(f func(done, total int)) Option {
	return func(c *Campaign) { c.progress = f }
}

// WithShards sizes the fleet of an executor that is not sized itself
// (shard.FleetOptions.Workers == 0). It does not engage sharding on its
// own; WithShardExecutor does.
func WithShards(n int) Option {
	return func(c *Campaign) { c.shards = n }
}

// WithShardExecutor fans the job list out over worker processes through
// e instead of the in-process pool (nil keeps the pool).
func WithShardExecutor(e ShardExecutor) Option {
	return func(c *Campaign) { c.shardExec = e }
}

// WithSpecs replaces the generated catalog sweep with an explicit fault
// list (the dts fault-list-file path).
func WithSpecs(specs []inject.FaultSpec) Option {
	return func(c *Campaign) { c.specs = specs }
}

// WithReplay installs a replay source: before execution the source
// resolves every job whose recorded trace proves the outcome cannot
// change under this campaign's substrate, and only the rest re-execute
// (see internal/replay for the divergence oracle). Mutually exclusive
// with WithShardExecutor and WithSupervision.
func WithReplay(src ReplaySource) Option {
	return func(c *Campaign) { c.replay = src }
}

// WithFaultTypes overrides the corruption set (default: the paper's
// three — zero, one, and flipped bits).
func WithFaultTypes(types ...inject.FaultType) Option {
	return func(c *Campaign) { c.types = types }
}

// WithInvocation selects which invocation of each function to inject
// (default 1, the paper's choice).
func WithInvocation(n int) Option {
	return func(c *Campaign) { c.invocation = n }
}

// WithPaperFaithfulSkips probes each unactivated function once before
// skipping it, exactly as the paper's tool did.
func WithPaperFaithfulSkips() Option {
	return func(c *Campaign) { c.paperFaithfulSkips = true }
}

// WithFreshBoot forces the legacy run engine: every run boots a fresh
// kernel (no prefix-snapshot forks, no pooling, no scheduler elision,
// no dormant-run copies).
// Archives are byte-identical either way; this exists as the benchmark
// and regression baseline for the snapshot-fork path.
func WithFreshBoot() Option {
	return func(c *Campaign) { c.runner.Opts.FreshBoot = true }
}
