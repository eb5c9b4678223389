// Package cluster models a compute cluster on top of the sim kernel: a set
// of nodes with CPU cores, a local disk and a NIC each, plus a shared
// storage service reachable from every node. It is the stand-in for the
// DAS5 cluster used in the Granula paper's experiments.
package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the simulated cluster hardware.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the CPU capacity of each node, in cpu-seconds per
	// second. A single-threaded task consumes at most 1 of these.
	CoresPerNode int
	// DiskBandwidth is each node's local-disk bandwidth in bytes/second.
	DiskBandwidth float64
	// NICBandwidth is each node's network bandwidth in bytes/second.
	// The network has no latency: at the platforms' message sizes it
	// moved no number the paper reports.
	NICBandwidth float64
	// SharedFSBandwidth is the aggregate bandwidth of the shared storage
	// service (e.g. an NFS server) in bytes/second.
	SharedFSBandwidth float64
	// NodeNamePrefix and NodeNameStart control node naming; names are
	// prefix + (start + i), matching the paper's "node340"-style names.
	NodeNamePrefix string
	NodeNameStart  int
}

// Cluster is a set of simulated nodes sharing a network fabric and a
// shared storage service.
type Cluster struct {
	eng    *sim.Engine
	nodes  []*Node
	shared *sim.Resource
}

// Node is one simulated compute node.
type Node struct {
	ID   int
	Name string

	CPU  *sim.Resource
	Disk *sim.Resource
	NIC  *sim.Resource

	cluster *Cluster
}

// New builds a cluster from cfg on engine e.
func New(e *sim.Engine, cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	if cfg.CoresPerNode <= 0 {
		panic("cluster: need at least one core per node")
	}
	c := &Cluster{
		eng:    e,
		shared: sim.NewResource(e, "sharedfs", cfg.SharedFSBandwidth, cfg.SharedFSBandwidth),
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("%s%d", cfg.NodeNamePrefix, cfg.NodeNameStart+i)
		n := &Node{
			ID:      i,
			Name:    name,
			CPU:     sim.NewResource(e, name+".cpu", float64(cfg.CoresPerNode), 1),
			Disk:    sim.NewResource(e, name+".disk", cfg.DiskBandwidth, cfg.DiskBandwidth),
			NIC:     sim.NewResource(e, name+".nic", cfg.NICBandwidth, cfg.NICBandwidth),
			cluster: c,
		}
		c.nodes = append(c.nodes, n)
	}
	return c
}

// Engine returns the underlying simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i; it panics on an out-of-range index.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns all nodes in ID order. The returned slice must not be
// modified.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Exec consumes cpuSeconds of single-threaded CPU work on the node,
// blocking p until it completes under fair sharing.
func (n *Node) Exec(p *sim.Proc, cpuSeconds float64) {
	n.CPU.Use(p, cpuSeconds)
}

// ExecParallel consumes cpuSeconds of CPU work that can use up to threads
// cores concurrently (an ideally parallel region).
func (n *Node) ExecParallel(p *sim.Proc, cpuSeconds float64, threads int) {
	if threads < 1 {
		threads = 1
	}
	n.CPU.UseWidth(p, cpuSeconds, float64(threads))
}

// ReadLocal reads bytes from the node's local disk.
func (n *Node) ReadLocal(p *sim.Proc, bytes float64) {
	n.Disk.Use(p, bytes)
}

// WriteLocal writes bytes to the node's local disk.
func (n *Node) WriteLocal(p *sim.Proc, bytes float64) {
	n.Disk.Use(p, bytes)
}

// ReadShared reads bytes from the shared storage service on behalf of a
// process running on this node. The shared server's aggregate bandwidth is
// the contended resource; the local NIC also carries the bytes.
func (n *Node) ReadShared(p *sim.Proc, bytes float64) {
	n.cluster.shared.Use(p, bytes)
}

// WriteShared writes bytes to the shared storage service.
func (n *Node) WriteShared(p *sim.Proc, bytes float64) {
	n.cluster.shared.Use(p, bytes)
}

// SharedFS exposes the shared storage resource, mainly for monitoring.
func (c *Cluster) SharedFS() *sim.Resource { return c.shared }

// Transfer moves bytes from node src to node dst, charging the sender's
// NIC bandwidth. Transfers within a node are free. The model charges only the sending NIC: for the bulk-synchronous
// traffic patterns of the platforms in this repository, send-side
// contention is the binding constraint, and charging both ends would
// double-count bytes that traverse a non-blocking fabric.
func (c *Cluster) Transfer(p *sim.Proc, src, dst *Node, bytes float64) {
	if src == dst || bytes <= 0 {
		return
	}
	src.NIC.Use(p, bytes)
}
