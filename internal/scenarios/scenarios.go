// Package scenarios pins the cluster failure-mode matrix: every
// combination of cluster size, client routing policy, injected cluster
// scenario and middleware runs once, and the per-cell outcomes render as
// one fixed-width line each. The rendered matrix is deterministic — the
// same bytes at any worker-pool width, on any machine — so a golden file
// (testdata/cluster_matrix.golden) turns the whole cluster layer's
// failure semantics into a single CI diff.
package scenarios

import (
	"context"
	"fmt"
	"strings"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/middleware"
	"ntdts/internal/workload"
	"ntdts/internal/workpool"
)

// The swept dimensions, in rendering order.
var (
	nodeCounts  = []int{1, 2, 3}
	policies    = []string{"failover", "round-robin", "least-loaded"}
	faults      = []string{"node-crash", "service-crash", "partition"}
	middlewares = []middleware.Spec{
		{Supervision: workload.Standalone},
		{Supervision: workload.MSCS},
		{Supervision: workload.Watchd}, // version unpinned = v3, the matrix's watchd generation
	}
)

// Scenario trigger timing: every fault fires 5 virtual seconds after the
// client starts (mid-workload for the ~19s IIS canned client) and a
// partition heals 15 seconds later, so heal-time recovery is exercised
// inside the run. Node 0 is always the target — it is the MSCS group
// owner, which is what makes cross-node failover visible in the matrix.
const (
	triggerDelaySec  = 5
	partitionHealSec = 15
)

// Cell is one matrix coordinate.
type Cell struct {
	Nodes      int
	Routing    string
	Middleware middleware.Spec
	Fault      string
}

// Cells enumerates the full matrix in rendering order.
func Cells() []Cell {
	var cells []Cell
	for _, n := range nodeCounts {
		for _, p := range policies {
			for _, f := range faults {
				for _, m := range middlewares {
					cells = append(cells, Cell{Nodes: n, Routing: p, Middleware: m, Fault: f})
				}
			}
		}
	}
	return cells
}

// Spec translates the cell's fault name into the scenario pseudo-fault
// the runner injects.
func (c Cell) Spec() inject.FaultSpec {
	switch c.Fault {
	case "node-crash":
		return inject.FaultSpec{Function: core.ClusterNodeCrashFunction,
			Invocation: triggerDelaySec, Type: inject.FlipBits}
	case "service-crash":
		return inject.FaultSpec{Function: core.ClusterServiceCrashFunction,
			Invocation: triggerDelaySec, Type: inject.FlipBits}
	case "partition":
		return inject.FaultSpec{Function: core.ClusterPartitionFunction,
			Param: partitionHealSec, Invocation: triggerDelaySec, Type: inject.FlipBits}
	default:
		panic("unknown scenario fault " + c.Fault)
	}
}

// Row is one executed cell.
type Row struct {
	Cell
	Outcome   core.Outcome
	Completed bool
	Response  float64
	Restarts  int
	Failovers int
	Crashes   int
}

// Run executes one cell: the IIS workload under the cell's middleware on
// the cell's topology, with the scenario fault injected.
func Run(c Cell) (Row, error) {
	def := workload.NewIIS(c.Middleware.Supervision)
	opts := core.DefaultRunnerOptions()
	opts.WatchdVersion = c.Middleware.Version()
	opts.Cluster = core.ClusterConfig{Nodes: c.Nodes, Routing: c.Routing}
	spec := c.Spec()
	res, err := core.NewRunner(def, opts).Run(&spec)
	if err != nil {
		return Row{}, fmt.Errorf("cell %+v: %w", c, err)
	}
	row := Row{Cell: c, Outcome: res.Outcome, Completed: res.Completed,
		Response: res.ResponseSec, Restarts: res.Restarts}
	for _, ns := range res.Nodes {
		row.Failovers += ns.Failovers
		if ns.Crashed {
			row.Crashes++
		}
	}
	return row, nil
}

// String renders the row as one fixed-width matrix line.
func (r Row) String() string {
	return fmt.Sprintf("nodes=%d routing=%-12s middleware=%-6s fault=%-13s outcome=%-22q completed=%-5v response=%6.2fs restarts=%d failovers=%d crashes=%d",
		r.Nodes, r.Routing, r.Middleware.Supervision, r.Fault, r.Outcome.String(),
		r.Completed, r.Response, r.Restarts, r.Failovers, r.Crashes)
}

// Matrix runs every cell on a pool of workers and renders the matrix.
// The rendering order is the Cells order regardless of the pool width,
// so the output is byte-identical at any parallelism.
func Matrix(parallelism int) (string, error) {
	cells := Cells()
	rows := make([]Row, len(cells))
	err := workpool.Run(context.Background(), len(cells), max(parallelism, 1), func() func(int) error {
		return func(i int) (err error) {
			rows[i], err = Run(cells[i])
			return err
		}
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("# Cluster scenario matrix: {nodes} x {routing} x {fault} x {middleware}, IIS workload.\n")
	b.WriteString("# Regenerate with: go test ./internal/scenarios/ -run TestClusterMatrix -update\n")
	for i := range cells {
		b.WriteString(rows[i].String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}
