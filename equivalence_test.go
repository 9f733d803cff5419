// End-to-end engine-equivalence oracle: the snapshot-fork run engine
// must produce archives byte-identical to the legacy fresh-boot engine
// through every execution topology — sequential, worker pools, and a
// work-stealing fleet of workers. The per-package tests pin the same
// property at the runner and campaign layers; this test pins it at the
// outermost layer users see (the archive the dts binary writes).
package ntdts_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
)

// TestEngineEquivalence runs one full Apache1 standalone campaign per
// execution topology and compares archive bytes against the fresh-boot
// sequential baseline.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign equivalence sweep is slow")
	}

	campaign := func(t *testing.T, freshBoot bool, parallel, shards int) []byte {
		t.Helper()
		opts := []core.Option{core.WithParallelism(parallel)}
		if freshBoot {
			opts = append(opts, core.WithFreshBoot())
		}
		if shards > 1 {
			opts = append(opts,
				core.WithShardExecutor(shard.NewFleet(shard.FleetOptions{Workers: shards, WorkerParallelism: 1})))
		}
		set, err := core.NewCampaign(
			core.NewRunner(workload.NewApache1(workload.Standalone), core.RunnerOptions{}),
			opts...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	baseline := campaign(t, true, 1, 1)

	for _, tc := range []struct {
		name             string
		parallel, shards int
	}{
		{"sequential", 1, 1},
		{"parallel-4", 4, 1},
		{"parallel-16", 16, 1},
		{"shards-4", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := campaign(t, false, tc.parallel, tc.shards)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("snapshot-fork archive (%s) diverges from fresh-boot baseline: %d vs %d bytes",
					tc.name, len(got), len(baseline))
			}
		})
	}
}
