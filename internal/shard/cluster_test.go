package shard

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

func newClusterRunner(nodes int, routing string) *core.Runner {
	opts := core.DefaultRunnerOptions()
	opts.Telemetry = telemetry.Options{Enabled: true}
	opts.Cluster = core.ClusterConfig{Nodes: nodes, Routing: routing}
	return core.NewRunner(workload.NewIIS(workload.MSCS), opts)
}

// TestClusterHeaderRoundTrip: the cluster topology rides the journal
// header, so shard workers and resumes rebuild the identical cluster.
func TestClusterHeaderRoundTrip(t *testing.T) {
	r := newClusterRunner(3, "least-loaded")
	got, err := RunnerFromHeader(HeaderFor(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Opts.Cluster != r.Opts.Cluster {
		t.Fatalf("cluster config drifted through the header: %+v -> %+v",
			r.Opts.Cluster, got.Opts.Cluster)
	}
	// And a single-host runner's header must not invent a topology.
	single := core.NewRunner(workload.NewIIS(workload.MSCS), core.DefaultRunnerOptions())
	if h := HeaderFor(single); h.ClusterNodes != 0 || h.ClusterRouting != "" {
		t.Fatalf("single-host header grew cluster fields: %+v", h)
	}
}

// TestShardedClusterMatchesUnsharded: a 3-node cluster campaign fanned
// out over fleet workers with two-wide run pools produces archive, trace
// and metrics byte-identical to the in-process run.
func TestShardedClusterMatchesUnsharded(t *testing.T) {
	specs := []inject.FaultSpec{
		{Function: core.ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits},
		{Function: core.ClusterServiceCrashFunction, Invocation: 5, Type: inject.FlipBits, Node: 1},
		{Function: core.ClusterPartitionFunction, Param: 15, Invocation: 5, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 2},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.OneBits},
	}
	base, err := core.NewCampaign(newClusterRunner(3, "round-robin"),
		core.WithParallelism(2), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)

	for _, workers := range []int{2, 4} {
		set, err := core.NewCampaign(newClusterRunner(3, "round-robin"),
			core.WithSpecs(specs),
			core.WithShardExecutor(NewFleet(FleetOptions{Workers: workers, WorkerParallelism: 2})),
		).Run(context.Background())
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		archive, trace, metrics := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) {
			t.Errorf("workers %d: cluster archive differs from unsharded run", workers)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("workers %d: cluster telemetry trace differs from unsharded run", workers)
		}
		if metrics != wantMetrics {
			t.Errorf("workers %d: cluster metrics text differs from unsharded run", workers)
		}
	}
}

// TestClusterFleetMatrix is the cross-transport equivalence drill: one
// 3-node cluster campaign executed as {fleet of 4, fleet of 4 with one
// worker killed mid-stream, TCP loopback fleet} must produce archive, trace and metrics byte-identical to the
// in-process run. CI runs this under -race.
func TestClusterFleetMatrix(t *testing.T) {
	specs := []inject.FaultSpec{
		{Function: core.ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits},
		{Function: core.ClusterServiceCrashFunction, Invocation: 5, Type: inject.FlipBits, Node: 1},
		{Function: core.ClusterPartitionFunction, Param: 15, Invocation: 5, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
		{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 2},
		{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.OneBits},
		{Function: "CreateFile", Param: 0, Invocation: 1, Type: inject.ZeroBits},
		{Function: "CloseHandle", Param: 0, Invocation: 2, Type: inject.FlipBits},
	}
	base, err := core.NewCampaign(newClusterRunner(3, "round-robin"),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)

	severing := func() Spawner {
		inner := InProcess()
		var spawned atomic.Int32
		return func() (*Conn, error) {
			conn, err := inner()
			if err != nil {
				return nil, err
			}
			if spawned.Add(1) == 1 {
				conn.Out = &severReader{r: conn.Out, kill: conn.Kill, after: 2}
			}
			return conn, nil
		}
	}
	tcpAddr := startWorkerServer(t, "cluster-matrix-key", InProcess())
	tcpSpawner := TCPSpawner(tcpAddr, "cluster-matrix-key")

	shapes := []struct {
		name string
		exec core.ShardExecutor
	}{
		{"steal-4", NewFleet(FleetOptions{Workers: 4})},
		{"steal-4-killed", NewFleet(FleetOptions{
			Workers: 4, Spawn: severing(),
		})},
		{"tcp-loopback", NewFleet(FleetOptions{
			Spawners: []Spawner{tcpSpawner, tcpSpawner, tcpSpawner, tcpSpawner},
		})},
	}
	for _, shape := range shapes {
		set, err := core.NewCampaign(newClusterRunner(3, "round-robin"),
			core.WithSpecs(specs),
			core.WithShardExecutor(shape.exec),
		).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		archive, trace, metrics := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) {
			t.Errorf("%s: cluster archive differs from in-process run", shape.name)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("%s: cluster trace differs from in-process run", shape.name)
		}
		if metrics != wantMetrics {
			t.Errorf("%s: cluster metrics differ from in-process run", shape.name)
		}
	}
}
