// Package envmon implements Granula's environment monitor: a sampling
// process that records per-node resource usage over simulated time. Its
// output corresponds to the "environment logs" of the Granula evaluation
// process (P2, Monitoring) and is the data behind the paper's Figures 6
// and 7 (CPU time per second, per node, mapped onto job operations).
//
// Beyond CPU, the monitor also samples each node's local-disk and NIC
// bytes and the shared filesystem server's bytes (as the pseudo-node
// "sharedfs"), so analyses can tell compute-bound from I/O-bound
// operations — the distinction behind the paper's PowerGraph diagnosis.
package envmon

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Resource kinds recorded by the monitor.
const (
	kindCPU  = "cpu"
	kindDisk = "disk"
	kindNIC  = "nic"
)

// sharedFSNode is the pseudo-node name under which shared-filesystem
// traffic is recorded.
const sharedFSNode = "sharedfs"

// Sample is one per-node, per-resource measurement over one sampling
// interval.
type Sample struct {
	// Time is the end of the sampling interval, in simulated seconds.
	Time float64 `json:"time"`
	// Node is the node name (or "sharedfs").
	Node string `json:"node"`
	// Kind is the resource: "cpu", "disk", or "nic".
	Kind string `json:"kind"`
	// Used is the amount consumed during the interval: cpu-seconds for
	// CPU (divided by the interval length this is the paper's "CPU time
	// / second" metric), bytes for disk and NIC.
	Used float64 `json:"used"`
}

// Monitor samples a cluster's resources at a fixed simulated interval.
type Monitor struct {
	cluster  *cluster.Cluster
	interval float64
	samples  []Sample
	sink     func(Sample)
	stopped  bool
}

// SetSink registers a callback invoked synchronously for every sample
// recorded after the call, in record order. The sampling process only
// runs while the simulation engine runs, so setting the sink between
// Start and the engine run observes every sample. A nil sink disables
// the callback.
func (m *Monitor) SetSink(sink func(Sample)) { m.sink = sink }

// Start spawns the monitoring process on the cluster's engine, sampling
// every interval simulated seconds until Stop is called. The first sample
// covers (start, start+interval].
func Start(c *cluster.Cluster, interval float64) *Monitor {
	if interval <= 0 {
		panic("envmon: interval must be positive")
	}
	m := &Monitor{
		cluster:  c,
		interval: interval,
	}
	c.Engine().Spawn("envmon", m.run)
	return m
}

// gauge is one monitored (node, kind, resource) triple.
type gauge struct {
	node string
	kind string
	res  *sim.Resource
	last float64
}

func (m *Monitor) run(p *sim.Proc) {
	var gauges []*gauge
	for _, n := range m.cluster.Nodes() {
		gauges = append(gauges,
			&gauge{node: n.Name, kind: kindCPU, res: n.CPU},
			&gauge{node: n.Name, kind: kindDisk, res: n.Disk},
			&gauge{node: n.Name, kind: kindNIC, res: n.NIC},
		)
	}
	gauges = append(gauges, &gauge{node: sharedFSNode, kind: kindDisk, res: m.cluster.SharedFS()})
	for _, g := range gauges {
		g.last = g.res.Consumed()
	}
	for !m.stopped {
		p.Sleep(m.interval)
		t := p.Now()
		for _, g := range gauges {
			cur := g.res.Consumed()
			s := Sample{Time: t, Node: g.node, Kind: g.kind, Used: cur - g.last}
			m.samples = append(m.samples, s)
			if m.sink != nil {
				m.sink(s)
			}
			g.last = cur
		}
	}
}

// Stop makes the monitoring process exit at its next tick. It is safe to
// call from inside or outside the simulation, and more than once.
func (m *Monitor) Stop() { m.stopped = true }

// Samples returns all samples recorded so far, in time order (and gauge
// order within one tick). The returned slice must not be modified.
func (m *Monitor) Samples() []Sample { return m.samples }

// String summarizes the monitor state for debugging.
func (m *Monitor) String() string {
	return fmt.Sprintf("envmon{interval=%gs samples=%d}", m.interval, len(m.samples))
}
