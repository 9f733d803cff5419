// Package replay re-executes a journaled campaign under an alternative
// middleware substrate — the counterfactual arm of the paper's
// cross-substrate comparison. A campaign journal records the full
// configuration (header), the frozen plan, and every run's record and
// trace; replay rebuilds the same campaign with the substrate swapped
// and hands a divergence oracle to the engine, which elides every run
// whose recorded evidence proves the swap cannot change the outcome and
// re-executes only the rest. The output archive is byte-identical to a
// from-scratch campaign under the target substrate — the equivalence
// property that makes elision trustworthy.
package replay

import (
	"context"
	"fmt"
	"sort"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/middleware/watchd"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
	"ntdts/internal/workpool"
)

// Source is a loaded campaign journal: the recorded configuration, the
// journaled plan, and every completed run decoded and indexed by job
// key.
type Source struct {
	Path   string
	Header journal.Header
	// PlanKeys is the journaled job list in plan order (probe jobs keep
	// their "/probe" suffix).
	PlanKeys []string
	// Runs indexes every completed run record by job key.
	Runs map[string]*core.RunResult
	// Quarantined counts journaled quarantine records (those runs have
	// no trustworthy outcome to elide from).
	Quarantined int
	// Torn reports that the journal's final line was incomplete and was
	// discarded; the surviving records are still usable evidence.
	Torn bool
}

// Load parses a campaign journal into a replay source. journal.Replay
// decodes its lines on the pool; Load then decodes each run's result,
// and never its trace, on workpool.Run in journal-index order. A bad
// result fails the load with the error of the lowest-indexed one,
// whatever the pool width.
func Load(path string) (*Source, error) {
	rep, err := journal.Replay(path)
	if err != nil {
		return nil, fmt.Errorf("replay source: %w", err)
	}
	if rep.Plan == nil {
		return nil, fmt.Errorf("replay source %s: journal carries no plan record", path)
	}
	src := &Source{
		Path:        path,
		Header:      rep.Header,
		PlanKeys:    rep.Plan.Jobs,
		Runs:        make(map[string]*core.RunResult, len(rep.Runs)),
		Quarantined: len(rep.Quarantined),
		Torn:        rep.Torn,
	}
	indices := make([]int, 0, len(rep.Runs))
	for i := range rep.Runs {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	runs := make([]*core.RunResult, len(indices))
	err = workpool.Run(context.TODO(), len(indices), 0, func() func(int) error {
		return func(n int) error {
			rec := rep.Runs[indices[n]]
			res, err := core.UnmarshalRunRecord(rec.Result, nil)
			if err != nil {
				return fmt.Errorf("replay source %s: run %q: %w", path, rec.Key, err)
			}
			runs[n] = res
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	for n, i := range indices {
		src.Runs[rep.Runs[i].Key] = runs[n]
	}
	return src, nil
}

// SourceSpec returns the middleware substrate the journal was recorded
// under.
func (s *Source) SourceSpec() (middleware.Spec, error) {
	sv, err := workload.ParseSupervision(s.Header.Supervision)
	if err != nil {
		return middleware.Spec{}, fmt.Errorf("replay source %s: %w", s.Path, err)
	}
	return middleware.Spec{Supervision: sv, WatchdVersion: watchd.Version(s.Header.WatchdVersion)}, nil
}

// Options configure one replay of a source campaign.
type Options struct {
	// Target is the substrate to replay under.
	Target middleware.Spec
	// Cluster overrides the recorded topology when non-nil (a topology
	// change disqualifies verbatim-copy elision; fault-free synthesis
	// still applies, on any topology, to a fault whose function the
	// target calls on no node).
	Cluster *core.ClusterConfig
	// Parallelism is the worker-pool width for re-executed runs.
	Parallelism int
	// Progress receives (done, total) over the re-executed runs.
	Progress func(done, total int)
	// NoElide disables the oracle so every run goes to the target's
	// runner — the equivalence baseline and the benchmark's rerun arm.
	// The runner still copies dormant runs (see core.Dormant).
	NoElide bool
}

// Build constructs the target-substrate campaign with the divergence
// oracle attached. The campaign's runner and its attempt policy are
// rebuilt through the same header codepath shard workers and dts
// -resume use, with only the substrate fields (and any cluster
// override) rewritten, so a re-executed run is retried and quarantined
// exactly as the source campaign's was; telemetry is forced off because
// archives exclude collectors, so collection could only slow the
// re-executed runs down.
func Build(src *Source, opts Options) (*core.Campaign, *Oracle, error) {
	srcSpec, err := src.SourceSpec()
	if err != nil {
		return nil, nil, err
	}
	h := src.Header
	h.Supervision = opts.Target.Supervision.String()
	h.WatchdVersion = 0
	if opts.Target.Supervision == workload.Watchd {
		h.WatchdVersion = int(opts.Target.Version())
	}
	clusterChanged := false
	if opts.Cluster != nil {
		recorded := core.ClusterConfig{Nodes: src.Header.ClusterNodes, Routing: src.Header.ClusterRouting}
		clusterChanged = *opts.Cluster != recorded
		h.ClusterNodes, h.ClusterRouting = opts.Cluster.Nodes, opts.Cluster.Routing
	}
	h.Telemetry, h.TraceCapacity = false, 0
	runner, err := shard.RunnerFromHeader(h)
	if err != nil {
		return nil, nil, fmt.Errorf("replay target runner: %w", err)
	}
	oracle := &Oracle{
		src:            src,
		source:         srcSpec,
		target:         opts.Target,
		clusterNodes:   h.ClusterNodes,
		clusterChanged: clusterChanged,
		noElide:        opts.NoElide,
	}
	copts := []core.Option{core.WithReplay(oracle), core.WithParallelism(opts.Parallelism),
		core.WithSupervision(shard.PolicyFromHeader(h))}
	if opts.Progress != nil {
		copts = append(copts, core.WithProgress(opts.Progress))
	}
	// A fault-list campaign replays the journaled plan verbatim; a
	// catalog campaign regenerates its plan from the *target* activation
	// scan (the censuses can differ across substrate families), exactly
	// as a from-scratch campaign would.
	if h.FaultList != "" {
		specs := make([]inject.FaultSpec, len(src.PlanKeys))
		for i, k := range src.PlanKeys {
			job, err := core.ParseJobKey(k)
			if err != nil {
				return nil, nil, fmt.Errorf("replay plan key %q: %w", k, err)
			}
			specs[i] = job.Spec
		}
		copts = append(copts, core.WithSpecs(specs))
	}
	return core.NewCampaign(runner, copts...), oracle, nil
}
