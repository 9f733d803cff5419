package cluster

import (
	"fmt"
	"time"

	"ntdts/internal/ntsim"
)

// Policy selects how clients pick a node when opening a connection.
type Policy int

const (
	// Failover pins clients to the lowest-indexed healthy node and moves
	// on only when it stops answering — the active/passive shape MSCS
	// expects (the resource group owner serves; standbys are idle).
	Failover Policy = iota
	// RoundRobin rotates the first node tried on every dial.
	RoundRobin
	// LeastLoaded tries nodes in ascending order of in-flight
	// connections (ties broken by node index), a pure function of
	// cluster state at the dial instant.
	LeastLoaded
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	default:
		return "failover"
	}
}

// ParsePolicy parses a -routing flag value. The empty string selects
// Failover, the default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "failover":
		return Failover, nil
	case "round-robin":
		return RoundRobin, nil
	case "least-loaded":
		return LeastLoaded, nil
	}
	return Failover, fmt.Errorf(`unknown routing policy %q (want "round-robin", "least-loaded" or "failover")`, s)
}

// Router dials client connections according to a routing policy. One
// router serves all clients of a run; its state (rotation cursor,
// in-flight counts) advances only inside Dial and connection close, both
// of which happen at deterministic scheduler instants.
type Router struct {
	topo     *Topology
	policy   Policy
	rrNext   int
	inflight []int
}

// NewRouter returns a router over the topology's nodes.
func NewRouter(topo *Topology, policy Policy) *Router {
	return &Router{
		topo:     topo,
		policy:   policy,
		inflight: make([]int, topo.Nodes()),
	}
}

// Dial opens a connection to path on a node chosen by the policy. Nodes
// that are down, unreachable from the client host, or not listening are
// skipped in policy order; when no node accepts, the most interesting
// errno seen is returned (busy beats not-found beats unreachable), so
// the client's connect-poll loop retries exactly as on a single host.
func (r *Router) Dial(p *ntsim.Process, path string) (*Conn, ntsim.Errno) {
	last := ntsim.ErrFileNotFound
	for _, i := range r.order() {
		if !r.topo.ClientReachable(i) {
			continue
		}
		pc, errno := r.topo.Node(i).ConnectPipeClient(path)
		if errno != ntsim.ErrSuccess {
			if errno == ntsim.ErrPipeBusy || last == ntsim.ErrFileNotFound {
				last = errno
			}
			continue
		}
		r.inflight[i]++
		return &Conn{
			pc:     pc,
			up:     r.topo.Network().Link(r.topo.ClientHost(), i),
			router: r,
			node:   i,
		}, ntsim.ErrSuccess
	}
	return nil, last
}

// order returns the node indices in the order this dial should try them.
// It depends only on the router's own state (one in-flight counter per
// node, the rotation cursor), never on the topology.
func (r *Router) order() []int {
	n := len(r.inflight)
	out := make([]int, n)
	switch r.policy {
	case RoundRobin:
		start := r.rrNext
		r.rrNext = (r.rrNext + 1) % n
		for j := range out {
			out[j] = (start + j) % n
		}
	case LeastLoaded:
		for j := range out {
			out[j] = j
		}
		// Insertion sort by (inflight, index): n is tiny and the sort
		// must be stable on index for determinism.
		for j := 1; j < n; j++ {
			for m := j; m > 0 && r.inflight[out[m]] < r.inflight[out[m-1]]; m-- {
				out[m], out[m-1] = out[m-1], out[m]
			}
		}
	default: // Failover: fixed preference order.
		for j := range out {
			out[j] = j
		}
	}
	return out
}

// Inflight returns node i's current in-flight connection count.
func (r *Router) Inflight(i int) int { return r.inflight[i] }

// release is called when a routed connection closes.
func (r *Router) release(i int) {
	if r.inflight[i] > 0 {
		r.inflight[i]--
	}
}

// Conn is a routed client connection: reads come straight off the pipe's
// client end (replies have already crossed the network by the time the
// server writes them — see Write), writes to the server traverse the
// client->node link, so they pay its latency and are held by partitions.
type Conn struct {
	pc     *ntsim.PipeClient
	up     *Link
	router *Router
	node   int
	closed bool
}

// Node returns the node this connection was routed to.
func (c *Conn) Node() int { return c.node }

// Read delegates to the underlying pipe client.
func (c *Conn) Read(p *ntsim.Process, buf []byte) (int, ntsim.Errno) {
	return c.pc.Read(p, buf)
}

// ReadTimeout delegates to the underlying pipe client.
func (c *Conn) ReadTimeout(p *ntsim.Process, buf []byte, timeout time.Duration) (int, ntsim.Errno) {
	return c.pc.ReadTimeout(p, buf, timeout)
}

// Write sends data toward the node over the client->node link: the bytes
// arrive at the server one link latency later, or pile up in the link if
// a partition cuts it first. The write itself always succeeds — the
// client cannot tell an in-flight loss from a slow server; its reply
// timeout is the failure detector, exactly as on a real network.
func (c *Conn) Write(data []byte) (int, ntsim.Errno) {
	if c.closed {
		return 0, ntsim.ErrInvalidHandle
	}
	pc := c.pc
	c.up.Send(data, func(b []byte) {
		pc.Write(b)
	})
	return len(data), ntsim.ErrSuccess
}

// CloseClient closes the routed connection and releases its load slot.
func (c *Conn) CloseClient() {
	if c.closed {
		return
	}
	c.closed = true
	c.router.release(c.node)
	c.pc.CloseClient()
}
