package core

// Functional-options construction for Campaign. The struct accreted
// configuration field by field across the parallel engine, telemetry,
// supervisor, and shard work; NewCampaign is now the supported way to
// build one — options compose, validate at one point, and leave room to
// unexport fields later without breaking callers.

import (
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/telemetry"
)

// Option configures a Campaign under construction.
type Option func(*Campaign)

// NewCampaign builds a campaign for one workload runner. With no
// options it is the full-catalog sequential sweep the paper ran, under
// the default attempt policy.
func NewCampaign(r *Runner, opts ...Option) *Campaign {
	c := &Campaign{runner: r}
	for _, opt := range opts {
		opt(c)
	}
	c.policy = c.policy.withDefaults()
	return c
}

// WithParallelism sets the worker-pool width (0 = all CPUs, 1 =
// sequential; results are byte-identical either way).
func WithParallelism(n int) Option {
	return func(c *Campaign) { c.parallelism = n }
}

// WithSupervision sets the attempt policy every run runs under
// (watchdog, retries, quarantine budget, chaos hooks); zero fields keep
// their defaults.
func WithSupervision(o SupervisorOptions) Option {
	return func(c *Campaign) { c.policy = o }
}

// WithJournal records every committed run and quarantine to jw (nil: no
// journal). A fresh journal gets the plan line first. With a non-nil
// rep the campaign resumes the journal rep was replayed from: its plan
// fingerprint must match the rebuilt plan, its runs and quarantines are
// adopted instead of re-executed, and only the rest run — on any
// executor — appending to jw, which journal.Append reopened.
func WithJournal(jw *journal.Writer, rep *journal.Replayed) Option {
	return func(c *Campaign) { c.journal, c.resume = jw, rep }
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
// resolves every job whose recorded evidence proves the outcome cannot
// change under this campaign's substrate, the ledger adopts those
// records, and only the rest re-execute (see internal/replay for the
// divergence oracle).
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
// kernel (no prefix-snapshot forks, no scheduler elision, no dormant-run
// copies).
// Archives are byte-identical either way; this exists as the benchmark
// and regression baseline for the snapshot-fork path. The runner is
// cloned, as WithTelemetry clones it, so a campaign sharing the runner
// keeps its fast paths; the clone may share the prefix and dormant
// caches, which FreshBoot leaves unread.
func WithFreshBoot() Option {
	return func(c *Campaign) {
		c.runner = c.runner.Clone()
		c.runner.Opts.FreshBoot = true
	}
}
