// Package mpi models the MPI runtime the PowerGraph-like platform deploys
// through: world spawn across cluster nodes, rank-to-rank messaging with
// network accounting, barriers, and the collectives the GAS engine needs
// (broadcast, gather, allreduce). Startup is cheap — a process fork per
// rank — which is precisely the contrast with YARN startup the paper's
// Figure 5 exposes.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Config sets the runtime's cost profile.
type Config struct {
	// SpawnLatency is mpirun's per-rank process start cost, in seconds.
	SpawnLatency float64
	// FinalizeLatency is the per-world teardown cost.
	FinalizeLatency float64
}

// World is a set of ranks with messaging and collectives.
type World struct {
	cluster *cluster.Cluster
	cfg     Config
	comms   []*Comm
	barrier *sim.Barrier
	done    *sim.Event
}

// Message is a tagged payload between ranks.
type Message struct {
	From    int
	Tag     string
	Bytes   float64
	Payload any
}

// Comm is one rank's endpoint in the world.
type Comm struct {
	world *World
	rank  int
	node  *cluster.Node
	inbox *sim.Mailbox[Message]
	// stash holds received messages whose tag no Recv has asked for yet,
	// in arrival order, so per-tag FIFO delivery is preserved.
	stash []Message
}

// Spawn launches nprocs ranks round-robin over the cluster's nodes, each
// running fn on its own simulated process, and returns the world. Rank
// processes start serially with SpawnLatency spacing, as mpirun does. The
// caller can wait for completion with Done().Wait.
func Spawn(p *sim.Proc, c *cluster.Cluster, cfg Config, nprocs int, fn func(*sim.Proc, *Comm)) (*World, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("mpi: nprocs must be positive, got %d", nprocs)
	}
	eng := p.Engine()
	w := &World{
		cluster: c,
		cfg:     cfg,
		barrier: sim.NewBarrier(eng, nprocs),
		done:    sim.NewEvent(eng),
	}
	for r := 0; r < nprocs; r++ {
		w.comms = append(w.comms, &Comm{
			world: w,
			rank:  r,
			node:  c.Node(r % c.Size()),
			inbox: sim.NewMailbox[Message](eng),
		})
	}
	procs := make([]*sim.Proc, nprocs)
	for r := 0; r < nprocs; r++ {
		p.Sleep(cfg.SpawnLatency)
		comm := w.comms[r]
		procs[r] = eng.Spawn(fmt.Sprintf("mpi-rank-%d", r), func(rp *sim.Proc) {
			fn(rp, comm)
		})
	}
	eng.Spawn("mpi-join", func(jp *sim.Proc) {
		for _, rp := range procs {
			rp.Done().Wait(jp)
		}
		w.done.Fire()
	})
	return w, nil
}

// Done returns an event fired when every rank's function has returned.
func (w *World) Done() *sim.Event { return w.done }

// Finalize charges the world teardown cost.
func (w *World) Finalize(p *sim.Proc) {
	p.Sleep(w.cfg.FinalizeLatency)
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// size returns the world size.
func (c *Comm) size() int { return len(c.world.comms) }

// Node returns the cluster node this rank runs on.
func (c *Comm) Node() *cluster.Node { return c.node }

// Send transmits a tagged payload of the given size to rank to, charging
// the sender's NIC for the bytes.
func (c *Comm) Send(p *sim.Proc, to int, tag string, bytes float64, payload any) {
	dst := c.world.comms[to]
	c.world.cluster.Transfer(p, c.node, dst.node, bytes)
	dst.inbox.Put(Message{From: c.rank, Tag: tag, Bytes: bytes, Payload: payload})
}

// Recv blocks until a message with the given tag arrives and returns it.
// Messages with other tags are held aside in arrival order, so delivery
// within each tag is FIFO.
func (c *Comm) Recv(p *sim.Proc, tag string) Message {
	for i, m := range c.stash {
		if m.Tag == tag {
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			return m
		}
	}
	for {
		m := c.inbox.Get(p)
		if m.Tag == tag {
			return m
		}
		c.stash = append(c.stash, m)
	}
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier(p *sim.Proc) {
	c.world.barrier.Await(p)
}

// bcast sends payload of the given size from root to every other rank and
// returns the payload on all ranks. It is synchronizing.
func (c *Comm) bcast(p *sim.Proc, root int, bytes float64, payload any) any {
	if c.rank == root {
		for r := range c.world.comms {
			if r != root {
				c.Send(p, r, "__bcast", bytes, payload)
			}
		}
		c.Barrier(p)
		return payload
	}
	m := c.Recv(p, "__bcast")
	c.Barrier(p)
	return m.Payload
}

// gather collects one float64 per rank at root; non-root ranks receive
// nil. It is synchronizing.
func (c *Comm) gather(p *sim.Proc, root int, bytes float64, value float64) []float64 {
	if c.rank == root {
		out := make([]float64, c.size())
		out[root] = value
		for i := 1; i < c.size(); i++ {
			m := c.Recv(p, "__gather")
			out[m.From] = m.Payload.(float64)
		}
		c.Barrier(p)
		return out
	}
	c.Send(p, root, "__gather", bytes, value)
	c.Barrier(p)
	return nil
}

// AllreduceSum returns the sum of each rank's value on every rank. It is
// synchronizing and uses a root-based reduce + broadcast.
func (c *Comm) AllreduceSum(p *sim.Proc, value float64) float64 {
	const root = 0
	vals := c.gather(p, root, 8, value)
	var sum float64
	if c.rank == root {
		for _, v := range vals {
			sum += v
		}
	}
	res := c.bcast(p, root, 8, sum)
	return res.(float64)
}
