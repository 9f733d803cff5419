package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ntdts/internal/determinism"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// clusterSpecs is a representative mixed plan: every scenario kind plus
// kernel faults, some node-addressed.
func clusterSpecs() []inject.FaultSpec {
	return []inject.FaultSpec{
		{Function: ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits},
		{Function: ClusterServiceCrashFunction, Invocation: 5, Type: inject.FlipBits, Node: 1},
		{Function: ClusterPartitionFunction, Param: 15, Invocation: 5, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 1},
		{Function: "TransactNamedPipe", Param: 2, Invocation: 1, Type: inject.OneBits, Node: 2},
	}
}

func runClusterSet(t *testing.T, def workload.Definition, cfg ClusterConfig, specs []inject.FaultSpec, par int, freshBoot bool) *SetResult {
	t.Helper()
	opts := DefaultRunnerOptions()
	opts.Cluster = cfg
	opts.FreshBoot = freshBoot
	c := NewCampaign(NewRunner(def, opts), WithSpecs(specs), WithParallelism(par))
	set, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestClusterOneNodeEquivalence: a 1-node cluster is the same machine —
// under every middleware, with telemetry off and on, a campaign over
// ordinary kernel faults produces an archive, merged JSONL trace and
// metrics text cmp-equal to the plain single host's.
func TestClusterOneNodeEquivalence(t *testing.T) {
	specs := []inject.FaultSpec{
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.ZeroBits},
		{Function: "TransactNamedPipe", Param: 2, Invocation: 1, Type: inject.OneBits},
	}
	for _, sup := range []workload.Supervision{workload.Standalone, workload.MSCS, workload.Watchd} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/telemetry=%t", sup, traced), func(t *testing.T) {
				t.Parallel()
				artifacts := func(cfg ClusterConfig) (archive, trace []byte, metrics string) {
					opts := DefaultRunnerOptions()
					opts.Cluster = cfg
					opts.Telemetry = telemetry.Options{Enabled: traced}
					c := NewCampaign(NewRunner(workload.NewIIS(sup), opts), WithSpecs(specs), WithParallelism(1))
					set, err := c.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if archive, err = json.Marshal(set); err != nil {
						t.Fatal(err)
					}
					if traced {
						var buf bytes.Buffer
						if err := set.Telemetry.WriteJSONL(&buf); err != nil {
							t.Fatal(err)
						}
						trace, metrics = buf.Bytes(), set.Telemetry.MetricsText()
						if len(trace) == 0 || metrics == "" {
							t.Fatal("telemetry enabled but the trace or metrics is empty")
						}
					}
					return archive, trace, metrics
				}
				host, hostTrace, hostMetrics := artifacts(ClusterConfig{})
				one, oneTrace, oneMetrics := artifacts(ClusterConfig{Nodes: 1})
				if !bytes.Equal(host, one) {
					t.Fatalf("1-node cluster archive diverges from the single host:\nhost:    %s\ncluster: %s", host, one)
				}
				if !bytes.Equal(hostTrace, oneTrace) {
					determinism.AssertSameTranscript(t, "merged trace", string(oneTrace), string(hostTrace),
						func(i int, _, _ string) string { return fmt.Sprintf("trace line %d", i+1) })
				}
				if oneMetrics != hostMetrics {
					t.Fatalf("1-node cluster metrics diverge from the single host:\nhost:\n%s\ncluster:\n%s", hostMetrics, oneMetrics)
				}
			})
		}
	}
}

// TestClusterParallelDeterminism is the cluster acceptance oracle: a
// 3-node campaign's archive is byte-identical at every worker count.
func TestClusterParallelDeterminism(t *testing.T) {
	def := workload.NewIIS(workload.MSCS)
	cfg := ClusterConfig{Nodes: 3}
	base := runClusterSet(t, def, cfg, clusterSpecs(), 1, false)
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 16} {
		got := runClusterSet(t, def, cfg, clusterSpecs(), par, false)
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseJSON, gotJSON) {
			t.Fatalf("par=%d: cluster archive bytes diverge from sequential", par)
		}
	}
}

// TestClusterFreshBootMatchesFork: the per-node boot-prefix fork is an
// optimization only — forcing fresh boots produces the identical set.
func TestClusterFreshBootMatchesFork(t *testing.T) {
	for _, sup := range []workload.Supervision{workload.Standalone, workload.MSCS, workload.Watchd} {
		sup := sup
		t.Run(sup.String(), func(t *testing.T) {
			t.Parallel()
			def := workload.NewIIS(sup)
			cfg := ClusterConfig{Nodes: 3, Routing: "round-robin"}
			fresh := runClusterSet(t, def, cfg, clusterSpecs(), 2, true)
			forked := runClusterSet(t, def, cfg, clusterSpecs(), 2, false)
			if !reflect.DeepEqual(fresh, forked) {
				t.Fatal("forked cluster campaign diverges from fresh-boot")
			}
		})
	}
}

// TestClusterForkFallback: a workload whose Setup leaves the kernel
// non-quiescent cannot snapshot; cluster nodes then boot fresh
// transparently, with results identical to forced fresh-boot.
func TestClusterForkFallback(t *testing.T) {
	mkDef := func() workload.Definition {
		def := workload.NewIIS(workload.Standalone)
		base := def.Setup
		def.Setup = func(k *ntsim.Kernel) {
			base(k)
			k.Clock().ScheduleAfter(24*time.Hour, func() {})
		}
		return def
	}
	specs := clusterSpecs()[:3]
	cfg := ClusterConfig{Nodes: 2}
	fresh := runClusterSet(t, mkDef(), cfg, specs, 1, true)
	fallback := runClusterSet(t, mkDef(), cfg, specs, 1, false)
	if !reflect.DeepEqual(fresh, fallback) {
		t.Fatal("non-snapshottable cluster fallback diverges from fresh-boot")
	}
}

// TestMSCSCrossNodeFailover pins the headline behaviour: crashing the
// MSCS group owner moves the service to the standby, visible in the
// standby's eventlog and the per-node stats, and the client completes.
func TestMSCSCrossNodeFailover(t *testing.T) {
	def := workload.NewIIS(workload.MSCS)
	opts := DefaultRunnerOptions()
	opts.Cluster = ClusterConfig{Nodes: 3}
	spec := inject.FaultSpec{Function: ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits}
	res, err := NewRunner(def, opts).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("client never completed: %+v", res)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("%d node stats, want 3", len(res.Nodes))
	}
	if !res.Nodes[0].Crashed {
		t.Fatalf("node 0 not marked crashed: %+v", res.Nodes[0])
	}
	if res.Nodes[1].Failovers != 1 {
		t.Fatalf("standby node 1 logged %d failovers, want 1 (stats: %+v)", res.Nodes[1].Failovers, res.Nodes)
	}
	if res.Nodes[1].Events == 0 {
		t.Fatal("standby node 1 eventlog is empty; the failover must be logged there")
	}
	if res.Outcome != RestartSuccess {
		t.Fatalf("outcome %v, want restart success (failover-recovered run)", res.Outcome)
	}
}

// TestClusterScenarioValidation: scenario faults demand a cluster
// topology, node addresses must exist on it, and the routing policy must
// be known whatever the topology's size. A run of such a spec fails, and
// so does a campaign listing it — at Prepare, before any run (the
// calibration included) sets up a kernel.
func TestClusterScenarioValidation(t *testing.T) {
	def := workload.NewIIS(workload.Standalone)
	scenario := inject.FaultSpec{Function: ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits}
	ok := inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits}
	bad := ok
	bad.Node = 5
	for _, tc := range []struct {
		why  string
		cfg  ClusterConfig
		spec inject.FaultSpec
	}{
		{"scenario fault without a cluster topology", ClusterConfig{}, scenario},
		{"node address beyond the topology", ClusterConfig{Nodes: 2}, bad},
		{"unknown routing policy", ClusterConfig{Nodes: 2, Routing: "nearest"}, ok},
		{"unknown routing policy on one node", ClusterConfig{Nodes: 1, Routing: "nearest"}, ok},
	} {
		opts := DefaultRunnerOptions()
		opts.Cluster = tc.cfg
		if _, err := NewRunner(def, opts).Run(&tc.spec); err == nil {
			t.Errorf("%s must error", tc.why)
		}
		counted, setups := def, 0
		counted.Setup = func(k *ntsim.Kernel) { setups++; def.Setup(k) }
		c := NewCampaign(NewRunner(counted, opts), WithSpecs([]inject.FaultSpec{ok, tc.spec}))
		if _, err := c.Prepare(); err == nil || setups != 0 {
			t.Errorf("%s: Prepare returned %v after %d kernel setups, want an error before any run", tc.why, err, setups)
		}
	}
}

// TestClusterNodeStatsOmittedOnSingleHost: classic runs must keep their
// archives byte-identical to pre-cluster versions — no nodes field.
func TestClusterNodeStatsOmittedOnSingleHost(t *testing.T) {
	def := workload.NewIIS(workload.Standalone)
	spec := inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits}
	res, err := NewRunner(def, DefaultRunnerOptions()).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"nodes"`)) {
		t.Fatalf("single-host archive grew a nodes field: %s", b)
	}
}

// TestClusterTelemetryMonotone: all nodes share one recorder on one
// clock, so the merged event stream — and therefore every node's slice
// of it — has non-decreasing timestamps.
func TestClusterTelemetryMonotone(t *testing.T) {
	def := workload.NewIIS(workload.MSCS)
	opts := DefaultRunnerOptions()
	opts.Cluster = ClusterConfig{Nodes: 3}
	opts.Telemetry = telemetry.Options{Enabled: true}
	spec := inject.FaultSpec{Function: ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits}
	res, err := NewRunner(def, opts).Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("no telemetry recorder on the run")
	}
	events := res.Telemetry.Events()
	if len(events) == 0 {
		t.Fatal("no telemetry events recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("event %d at %v precedes event %d at %v", i, events[i].At, i-1, events[i-1].At)
		}
	}
	var sawScenario bool
	for _, e := range events {
		if e.Kind == telemetry.KindPhase && e.Name == "cluster-scenario:"+ClusterNodeCrashFunction {
			sawScenario = true
		}
	}
	if !sawScenario {
		t.Fatal("scenario trigger phase event missing from the trace")
	}
}

// TestClusterScenarioKeysRoundTrip: scenario specs journal and resume
// through the same Key encoding as kernel faults.
func TestClusterScenarioKeysRoundTrip(t *testing.T) {
	for _, spec := range clusterSpecs() {
		got, err := inject.ParseKey(spec.Key())
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		if got != spec {
			t.Fatalf("key %s round-tripped to %+v, want %+v", spec.Key(), got, spec)
		}
	}
	if _, err := inject.ParseKey(fmt.Sprintf("%s/0/5/1/-1", ClusterNodeCrashFunction)); err == nil {
		t.Fatal("negative node must fail to parse")
	}
}
