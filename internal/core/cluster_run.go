package core

import (
	"time"

	"ntdts/internal/inject"
)

// Cluster scenario faults. Like the DTSChaos* supervisor hooks, these are
// reserved pseudo-function names riding the ordinary FaultSpec shape so
// they journal, shard, resume and report exactly like KERNEL32 faults.
// The field convention: Node addresses the target node, Invocation is the
// trigger delay in seconds after the client starts (1-based like a real
// invocation count), Param is the heal delay in seconds for partitions
// (0 = the partition never heals), and Type is carried but ignored (use
// "flip" canonically, as the chaos specs do).
const (
	// ClusterNodeCrashFunction powers off a node: all its processes die
	// and its links go dark.
	ClusterNodeCrashFunction = "DTSClusterNodeCrash"
	// ClusterServiceCrashFunction kills the service process on a node,
	// leaving the node (and its middleware) up to react.
	ClusterServiceCrashFunction = "DTSClusterServiceCrash"
	// ClusterPartitionFunction cuts every link between a node and the
	// rest of the network, healing after Param seconds.
	ClusterPartitionFunction = "DTSClusterPartition"
)

// scenarioFault is a decoded cluster scenario spec.
type scenarioFault struct {
	kind  scenarioKind
	node  int
	delay time.Duration
	heal  time.Duration
}

type scenarioKind int

const (
	scenNodeCrash scenarioKind = iota + 1
	scenServiceCrash
	scenPartition
)

// scenarioFor decodes a scenario pseudo-fault, or returns nil for
// ordinary specs (including nil).
func scenarioFor(spec *inject.FaultSpec) *scenarioFault {
	if spec == nil {
		return nil
	}
	var kind scenarioKind
	switch spec.Function {
	case ClusterNodeCrashFunction:
		kind = scenNodeCrash
	case ClusterServiceCrashFunction:
		kind = scenServiceCrash
	case ClusterPartitionFunction:
		kind = scenPartition
	default:
		return nil
	}
	return &scenarioFault{
		kind:  kind,
		node:  spec.Node,
		delay: time.Duration(spec.Invocation) * time.Second,
		heal:  time.Duration(spec.Param) * time.Second,
	}
}
