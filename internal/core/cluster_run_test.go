package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// clusterDormantSpecs adds two kernel faults on each MSCS standby node
// to clusterSpecs, for three on each. A standby calls nothing under
// failover routing, so all three are dormant, and at width 1 the second
// and third on each node are copies.
func clusterDormantSpecs() []inject.FaultSpec {
	return append(clusterSpecs(),
		inject.FaultSpec{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 1},
		inject.FaultSpec{Function: "CreateEventA", Param: 0, Invocation: 1, Type: inject.ZeroBits, Node: 2},
		inject.FaultSpec{Function: "CreateMailslotA", Param: 0, Invocation: 1, Type: inject.OneBits, Node: 1},
		inject.FaultSpec{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits, Node: 2},
	)
}

// roundRobinSpecs is ordered against a template shared by every node.
// Under round-robin routing IIS with no middleware calls ReadFile and
// InterlockedIncrement on node 1 but not on node 2, so node 2's
// template, which comes first, would answer node 1's live faults with a
// fault-free run.
func roundRobinSpecs() []inject.FaultSpec {
	return []inject.FaultSpec{
		{Function: "CreateMailslotA", Param: 0, Invocation: 1, Type: inject.ZeroBits, Node: 2},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 1},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits, Node: 1},
		{Function: "InterlockedIncrement", Param: 0, Invocation: 1, Type: inject.OneBits, Node: 1},
		{Function: "CreateMailslotA", Param: 0, Invocation: 1, Type: inject.OneBits, Node: 1},
		{Function: "CreateMailslotA", Param: 0, Invocation: 1, Type: inject.FlipBits, Node: 2},
	}
}

// mixedClusterSpecs mixes every scenario kind with kernel faults on
// functions Apache, IIS and SQL Server all call, addressed to each of the
// first nodes nodes. The scenarios fire between 1 and 3 seconds into the
// client, while it is still sending requests.
func mixedClusterSpecs(nodes int) []inject.FaultSpec {
	var specs []inject.FaultSpec
	for _, s := range []inject.FaultSpec{
		{Function: ClusterServiceCrashFunction, Invocation: 1, Type: inject.FlipBits},
		{Function: ClusterNodeCrashFunction, Invocation: 2, Type: inject.FlipBits},
		{Function: ClusterPartitionFunction, Param: 3, Invocation: 1, Type: inject.FlipBits},
		{Function: ClusterServiceCrashFunction, Invocation: 3, Type: inject.FlipBits, Node: 1},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "CreateFileA", Param: 0, Invocation: 1, Type: inject.ZeroBits},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 1},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.OneBits, Node: 1},
		{Function: "CloseHandle", Param: 0, Invocation: 1, Type: inject.OneBits, Node: 2},
	} {
		if s.Node < nodes {
			specs = append(specs, s)
		}
	}
	return specs
}

// artifacts is what a campaign leaves: its archive and, when traced,
// its merged JSONL trace and metrics text.
type artifacts struct {
	archive, trace []byte
	metrics        string
}

// clusterArtifacts runs specs as one campaign and returns its artifacts,
// the trace and metrics only when opts enables telemetry.
func clusterArtifacts(t *testing.T, def workload.Definition, opts RunnerOptions, specs []inject.FaultSpec, par int) artifacts {
	t.Helper()
	c := NewCampaign(NewRunner(def, opts), WithSpecs(specs), WithParallelism(par))
	set, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var a artifacts
	if a.archive, err = json.Marshal(set); err != nil {
		t.Fatal(err)
	}
	if opts.Telemetry.Enabled {
		var buf bytes.Buffer
		if err := set.Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		a.trace, a.metrics = buf.Bytes(), set.Telemetry.MetricsText()
		if len(a.trace) == 0 || a.metrics == "" {
			t.Fatal("telemetry enabled but the trace or metrics is empty")
		}
	}
	return a
}

// mustEqual fails unless got's archive, trace and metrics equal want's.
func (got artifacts) mustEqual(t *testing.T, what string, want artifacts) {
	t.Helper()
	if !bytes.Equal(got.archive, want.archive) {
		t.Fatalf("%s: archive diverges:\ngot:  %s\nwant: %s", what, got.archive, want.archive)
	}
	if !bytes.Equal(got.trace, want.trace) {
		determinism.AssertSameTranscript(t, what+": merged trace", string(got.trace), string(want.trace),
			func(i int, _, _ string) string { return fmt.Sprintf("trace line %d", i+1) })
	}
	if got.metrics != want.metrics {
		t.Fatalf("%s: metrics diverge:\ngot:\n%s\nwant:\n%s", what, got.metrics, want.metrics)
	}
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
				opts := DefaultRunnerOptions()
				opts.Telemetry = telemetry.Options{Enabled: traced}
				host := clusterArtifacts(t, workload.NewIIS(sup), opts, specs, 1)
				opts.Cluster = ClusterConfig{Nodes: 1}
				one := clusterArtifacts(t, workload.NewIIS(sup), opts, specs, 1)
				one.mustEqual(t, "1-node cluster vs single host", host)
			})
		}
	}
}

// TestClusterParallelDeterminism is the cluster acceptance oracle: a
// 3-node campaign's archive is byte-identical at every worker count,
// whichever worker's standby-node run becomes that node's template.
func TestClusterParallelDeterminism(t *testing.T) {
	def := workload.NewIIS(workload.MSCS)
	opts := DefaultRunnerOptions()
	opts.Cluster = ClusterConfig{Nodes: 3}
	base := clusterArtifacts(t, def, opts, clusterDormantSpecs(), 1)
	for _, par := range []int{4, 16} {
		clusterArtifacts(t, def, opts, clusterDormantSpecs(), par).mustEqual(t, fmt.Sprintf("par=%d vs sequential", par), base)
	}
}

// TestClusterFreshBootMatchesFork: the per-node boot-prefix fork, the
// per-node dormant-run copies and scheduler elision on the shared-clock
// machine are optimizations only — forcing fresh boots, which takes none
// of them, produces the identical archive, merged trace and metrics. Two
// lists hold several dormant faults per node: the MSCS standbys call
// nothing, and under round-robin routing nodes 1 and 2 call different
// functions (see roundRobinSpecs, which runs in order at width 1). The
// rest mix scenario faults with node-addressed kernel faults across the
// three servers, both active-active and active/passive middleware, a
// 2-node least-loaded topology and a multi-client cohort.
func TestClusterFreshBootMatchesFork(t *testing.T) {
	type tc struct {
		name    string
		def     workload.Definition
		nodes   int
		routing string
		specs   []inject.FaultSpec
		par     int
	}
	cases := []tc{
		{"MSCS-failover-dormant", workload.NewIIS(workload.MSCS), 3, "failover", clusterDormantSpecs(), 1},
		{"none-round-robin-dormant", workload.NewIIS(workload.Standalone), 3, "round-robin", roundRobinSpecs(), 1},
	}
	for _, sup := range []workload.Supervision{workload.Standalone, workload.MSCS, workload.Watchd} {
		cases = append(cases, tc{sup.String(), workload.NewIIS(sup), 3, "round-robin", clusterSpecs(), 2})
	}
	for _, mk := range []func(workload.Supervision) workload.Definition{workload.NewApache1, workload.NewSQL} {
		for _, sup := range []workload.Supervision{workload.MSCS, workload.Watchd} {
			def := mk(sup)
			cases = append(cases, tc{def.Name + "-" + sup.String(), def, 3, "failover", mixedClusterSpecs(3), 2})
		}
	}
	cohort, err := workload.Cohort(workload.NewIIS(workload.MSCS), []workload.ClientSchedule{
		{Class: "browser", Client: 0, Steps: []workload.Step{{Request: "static-115k"}, {Request: "cgi-1k", Think: time.Second}}},
		{Class: "browser", Client: 1, Steps: []workload.Step{{Request: "cgi-1k", At: 500 * time.Millisecond}, {Request: "static-115k", At: 2 * time.Second}}},
		{Class: "batch", Client: 0, Steps: []workload.Step{{Request: "static-115k", At: time.Second}, {Request: "static-115k", Think: 2 * time.Second}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"watchd-2-node-least-loaded", workload.NewIIS(workload.Watchd), 2, "least-loaded", mixedClusterSpecs(2), 1},
		tc{"MSCS-cohort", cohort, 3, "failover", mixedClusterSpecs(3), 2},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultRunnerOptions()
			opts.Cluster = ClusterConfig{Nodes: c.nodes, Routing: c.routing}
			opts.Telemetry = telemetry.Options{Enabled: true}
			forked := clusterArtifacts(t, c.def, opts, c.specs, c.par)
			opts.FreshBoot = true
			fresh := clusterArtifacts(t, c.def, opts, c.specs, c.par)
			forked.mustEqual(t, "forked cluster campaign vs fresh-boot", fresh)
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
	opts := DefaultRunnerOptions()
	opts.Cluster = ClusterConfig{Nodes: 2}
	fallback := clusterArtifacts(t, mkDef(), opts, specs, 1)
	opts.FreshBoot = true
	fallback.mustEqual(t, "non-snapshottable cluster fallback vs fresh-boot", clusterArtifacts(t, mkDef(), opts, specs, 1))
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
