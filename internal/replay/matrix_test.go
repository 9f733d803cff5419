package replay_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/scenarios"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
)

// TestReplayScenarioMatrixEquivalence covers the full 81-cell cluster
// scenario matrix with replay: for each of the 9 topologies, the three
// scenario pseudo-faults are journaled as a campaign under no
// middleware, then replayed to each of the matrix's 3 substrates and
// compared byte-for-byte against the from-scratch campaign. Cluster
// scenario faults are never elidable (wall-clock triggers, multi-node
// state), so this pins the re-execution path — and the oracle's refusal
// to elide — across every topology.
func TestReplayScenarioMatrixEquivalence(t *testing.T) {
	cells := scenarios.Cells()
	type topo struct {
		nodes   int
		routing string
	}
	specsByTopo := make(map[topo][]inject.FaultSpec)
	var topos []topo
	targets := make(map[string]middleware.Spec)
	var targetOrder []string
	for _, c := range cells {
		k := topo{c.Nodes, c.Routing}
		if _, ok := specsByTopo[k]; !ok {
			topos = append(topos, k)
		}
		spec := c.Spec()
		dup := false
		for _, s := range specsByTopo[k] {
			if s == spec {
				dup = true
			}
		}
		if !dup {
			specsByTopo[k] = append(specsByTopo[k], spec)
		}
		if _, ok := targets[c.Middleware.String()]; !ok {
			targets[c.Middleware.String()] = c.Middleware
			targetOrder = append(targetOrder, c.Middleware.String())
		}
	}

	covered := 0
	for _, tp := range topos {
		specs := specsByTopo[tp]
		// Journal the topology's campaign once, under no middleware.
		opts := core.DefaultRunnerOptions()
		opts.Cluster = core.ClusterConfig{Nodes: tp.nodes, Routing: tp.routing}
		runner := core.NewRunner(workload.NewIIS(workload.Standalone), opts)
		h := shard.HeaderFor(runner)
		h.FaultList = "scenarios"
		path := filepath.Join(t.TempDir(), fmt.Sprintf("n%d-%s.journal", tp.nodes, tp.routing))
		jw, err := journal.Create(path, h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.NewCampaign(runner, core.WithSpecs(specs),
			core.WithJournal(jw, nil), core.WithParallelism(2)).Run(context.Background()); err != nil {
			t.Fatalf("source campaign %+v: %v", tp, err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}

		for _, name := range targetOrder {
			target := targets[name]
			tOpts := core.DefaultRunnerOptions()
			tOpts.WatchdVersion = target.Version()
			tOpts.Cluster = core.ClusterConfig{Nodes: tp.nodes, Routing: tp.routing}
			want, err := core.NewCampaign(core.NewRunner(workload.NewIIS(target.Supervision), tOpts),
				core.WithSpecs(specs), core.WithParallelism(2)).Run(context.Background())
			if err != nil {
				t.Fatalf("from-scratch %+v -> %s: %v", tp, name, err)
			}
			set, oracle := replayTo(t, path, target, 2)
			if archiveBytes(t, set) != archiveBytes(t, want) {
				t.Fatalf("topology %+v target %s: replayed archive differs from from-scratch", tp, name)
			}
			if st := oracle.Stats(); st.Elided != 0 {
				t.Fatalf("topology %+v target %s: scenario pseudo-faults must never be elided, got %+v", tp, name, st)
			}
			covered += len(specs)
		}
	}
	if covered != len(cells) {
		t.Fatalf("covered %d cells, matrix has %d", covered, len(cells))
	}
}
