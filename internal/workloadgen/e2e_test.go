package workloadgen_test

// End-to-end determinism for generated workloads: the same cohort spec
// must produce the same schedule (pinned as a golden trace), and a
// 200-fault campaign over that cohort must produce byte-identical
// archives at every execution topology — sequential, worker pools,
// multi-process shards — and when the recorded trace is replayed in
// place of the generator. This is the workload-generation extension of
// the repo-root engine-equivalence oracle.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
	"ntdts/internal/workloadgen"
)

var update = flag.Bool("update", false, "rewrite golden files from live behaviour")

// goldenSpec is the pinned 8-client cohort: an open-loop Poisson browser
// class over both HTTP request kinds and a closed-loop bursty Gamma
// batch class. The rates are tuned to the simulated server's capacity so
// the fault-free run is NormalSuccess — campaign outcomes then measure
// the injected faults, not self-inflicted overload.
const goldenSpec = "seed=42" +
	";class=browser,clients=5,requests=6,arrival=poisson,rate=0.05,mix=static-115k:3/cgi-1k:1" +
	";class=batch,clients=3,requests=4,arrival=gamma,rate=0.2,shape=0.5,mix=cgi-1k:1,mode=closed"

// goldenSchedule parses and generates the pinned cohort.
func goldenSchedule(t *testing.T) (workloadgen.CohortSpec, []workload.ClientSchedule) {
	t.Helper()
	spec, err := workloadgen.Parse(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	return spec, scheds
}

// TestScheduleGolden pins the generated schedule's exact bytes: any
// change to the PRNG, the samplers, the substream derivation or the
// trace format shows up as a golden diff (refresh deliberately with
// -update).
func TestScheduleGolden(t *testing.T) {
	spec, scheds := goldenSchedule(t)
	var b bytes.Buffer
	if err := workloadgen.WriteTrace(&b, spec.String(), scheds); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, b.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("generated schedule diverges from %s: %d vs %d bytes (refresh with -update if the change is intended)",
			golden, b.Len(), len(want))
	}
}

// TestSQLCohortMixesBothRequestKinds: the SQL catalog's second request
// kind (select-small) is reachable only through generated cohorts — the
// canned SqlClient stays pinned to the paper's single select. A mixed
// cohort must schedule both kinds, compile against NewSQL, and complete
// its fault-free calibration run with every request answered correctly.
func TestSQLCohortMixesBothRequestKinds(t *testing.T) {
	const sqlSpec = "seed=7" +
		";class=sql,clients=3,requests=4,arrival=poisson,rate=0.05,mix=select-orders:1/select-small:1"
	spec, err := workloadgen.Parse(sqlSpec)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, cs := range scheds {
		for _, st := range cs.Steps {
			counts[st.Request]++
		}
	}
	if counts["select-orders"] == 0 || counts["select-small"] == 0 {
		t.Fatalf("1:1 mix over 12 requests left a kind unscheduled: %v", counts)
	}

	def, err := workloadgen.Compile(workload.NewSQL(workload.Standalone), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewRunner(def, core.RunnerOptions{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Outcome != core.NormalSuccess {
		t.Fatalf("fault-free SQL cohort run: completed=%v outcome=%v, want normal success", res.Completed, res.Outcome)
	}
	if len(res.Classes) != 1 {
		t.Fatalf("%d class aggregates, want 1 (sql)", len(res.Classes))
	}
	co := res.Classes[0]
	if co.Class != "sql" || co.Clients != 3 || co.Requests != 12 || co.Succeeded != 12 {
		t.Fatalf("sql class stats %+v, want 3 clients x 4 requests all succeeded", co)
	}

	// The mix validates against the catalog: a kind the SQL workload
	// does not serve must be rejected at compile time.
	bogus, err := workloadgen.Parse("seed=7;class=sql,clients=1,requests=2,arrival=poisson,rate=0.05,mix=drop-table:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloadgen.Compile(workload.NewSQL(workload.Standalone), bogus); err == nil {
		t.Fatal("unknown request kind must fail cohort compilation")
	}
}

// campaignSpecs builds a deterministic 200-fault list spanning the
// KERNEL32 catalog, cycling parameters and corruption types — the same
// shape a faultgen-generated user fault list has.
func campaignSpecs(n int) []inject.FaultSpec {
	types := inject.AllFaultTypes()
	var specs []inject.FaultSpec
	for i, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		specs = append(specs, inject.FaultSpec{
			Function:   e.Name,
			Param:      i % e.Params,
			Invocation: 1,
			Type:       types[i%len(types)],
		})
		if len(specs) == n {
			break
		}
	}
	return specs
}

// runCampaign executes the 200-spec campaign over def at one topology
// and returns the marshalled archive.
func runCampaign(t *testing.T, def workload.Definition, parallel, shards int) []byte {
	t.Helper()
	opts := []core.Option{
		core.WithParallelism(parallel),
		core.WithSpecs(campaignSpecs(200)),
	}
	if shards > 1 {
		opts = append(opts,
			core.WithShardExecutor(shard.NewFleet(shard.FleetOptions{Workers: shards, WorkerParallelism: 1})))
	}
	set, err := core.NewCampaign(
		core.NewRunner(def, core.RunnerOptions{}), opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCohortCampaignDeterminism is the acceptance oracle: the generated
// 8-client cohort campaign produces byte-identical archives at -parallel
// 1, 4 and 16, across a 4-worker fleet (whose workers
// rebuild the cohort from the journal header's spec string), and when
// the recorded schedule trace is replayed in place of the generator.
func TestCohortCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign determinism sweep is slow")
	}
	spec, scheds := goldenSchedule(t)
	base := workload.NewApache1(workload.Standalone)
	cohortDef, err := workloadgen.Compile(base, spec)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runCampaign(t, cohortDef, 1, 1)
	var classy core.SetResult
	if err := json.Unmarshal(baseline, &classy); err != nil {
		t.Fatal(err)
	}
	if len(classy.ClassStats()) != 2 {
		t.Fatalf("archive carries %d class aggregates, want 2 (browser, batch)", len(classy.ClassStats()))
	}

	for _, tc := range []struct {
		name             string
		parallel, shards int
	}{
		{"parallel-4", 4, 1},
		{"parallel-16", 16, 1},
		{"shards-4", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runCampaign(t, cohortDef, tc.parallel, tc.shards)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("%s archive diverges from sequential baseline: %d vs %d bytes",
					tc.name, len(got), len(baseline))
			}
		})
	}

	t.Run("trace-replay", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "schedule.wtrace")
		if err := workloadgen.WriteTraceFile(path, spec.String(), scheds); err != nil {
			t.Fatal(err)
		}
		replayDef, err := workloadgen.CompileTrace(base, path)
		if err != nil {
			t.Fatal(err)
		}
		got := runCampaign(t, replayDef, 4, 1)
		if !bytes.Equal(got, baseline) {
			t.Fatalf("trace-replay archive diverges from generated-cohort baseline: %d vs %d bytes",
				len(got), len(baseline))
		}
	})

	t.Run("trace-replay-sharded", func(t *testing.T) {
		// Shard workers receive the trace *path* through the journal
		// header and re-read it themselves.
		path := filepath.Join(t.TempDir(), "schedule.wtrace")
		if err := workloadgen.WriteTraceFile(path, spec.String(), scheds); err != nil {
			t.Fatal(err)
		}
		replayDef, err := workloadgen.CompileTrace(base, path)
		if err != nil {
			t.Fatal(err)
		}
		got := runCampaign(t, replayDef, 1, 4)
		if !bytes.Equal(got, baseline) {
			t.Fatalf("sharded trace-replay archive diverges: %d vs %d bytes", len(got), len(baseline))
		}
	})
}
