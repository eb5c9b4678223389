// Package yarn models a YARN-like cluster resource manager: application
// submission, container negotiation, and container launch. The Giraph-like
// platform deploys its master and workers through it, which is what makes
// that platform's Startup operation slow yet CPU-light — the behaviour the
// paper reads off Figure 6.
package yarn

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Config sets the latency profile of the resource manager.
type Config struct {
	// SubmitLatency is the cost of submitting an application and starting
	// its application master, in seconds.
	SubmitLatency float64
	// AllocLatency is the scheduler's per-container allocation time; the
	// RM grants containers serially, so requests for many containers pay
	// this repeatedly (heartbeat-based allocation rounds).
	AllocLatency float64
	// LaunchLatency is the NodeManager-side fixed cost of starting a
	// container process (fetching resources, spawning the JVM).
	LaunchLatency float64
	// LaunchCPUSeconds is CPU charged on the container's node at launch
	// (JVM startup, classloading) — small but nonzero.
	LaunchCPUSeconds float64
	// ReleaseLatency is the per-application teardown cost.
	ReleaseLatency float64
}

// ResourceManager tracks cluster capacity and running applications.
type ResourceManager struct {
	cluster *cluster.Cluster
	cfg     Config
	// freeCores[i] is uncommitted capacity on node i, in cores.
	freeCores []int
	nextApp   int
	nextNode  int
}

// NewResourceManager creates an RM over the cluster.
func NewResourceManager(c *cluster.Cluster, cfg Config) *ResourceManager {
	free := make([]int, c.Size())
	for i := range free {
		free[i] = c.Config().CoresPerNode
	}
	return &ResourceManager{cluster: c, cfg: cfg, freeCores: free}
}

// Application is a submitted YARN application.
type Application struct {
	ID         string
	rm         *ResourceManager
	containers []*Container
	released   bool
}

// Container is an allocated slice of a node.
type Container struct {
	ID    string
	Node  *cluster.Node
	Cores int

	cfg Config
}

// Submit registers an application and starts its application master,
// charging the submission latency.
func (rm *ResourceManager) Submit(p *sim.Proc, name string) *Application {
	p.Sleep(rm.cfg.SubmitLatency)
	rm.nextApp++
	return &Application{
		ID: fmt.Sprintf("application_%s_%04d", name, rm.nextApp),
		rm: rm,
	}
}

// AllocateContainers grants n containers of coresEach cores, placed
// round-robin across nodes with free capacity. Grants are serial (one
// AllocLatency each), as in heartbeat-driven YARN scheduling. It returns
// an error if the cluster lacks capacity.
func (a *Application) AllocateContainers(p *sim.Proc, n, coresEach int) ([]*Container, error) {
	if a.released {
		return nil, fmt.Errorf("yarn: application %s already released", a.ID)
	}
	if n <= 0 || coresEach <= 0 {
		return nil, fmt.Errorf("yarn: invalid request n=%d cores=%d", n, coresEach)
	}
	rm := a.rm
	granted := make([]*Container, 0, n)
	for len(granted) < n {
		placed := false
		for tries := 0; tries < rm.cluster.Size(); tries++ {
			node := rm.nextNode
			rm.nextNode = (rm.nextNode + 1) % rm.cluster.Size()
			if rm.freeCores[node] >= coresEach {
				rm.freeCores[node] -= coresEach
				p.Sleep(rm.cfg.AllocLatency)
				c := &Container{
					ID:    fmt.Sprintf("%s_container_%02d", a.ID, len(a.containers)+len(granted)+1),
					Node:  rm.cluster.Node(node),
					Cores: coresEach,
					cfg:   rm.cfg,
				}
				granted = append(granted, c)
				placed = true
				break
			}
		}
		if !placed {
			// Roll back partial grant.
			for _, c := range granted {
				rm.freeCores[c.Node.ID] += c.Cores
			}
			return nil, fmt.Errorf("yarn: insufficient capacity for %d x %d cores", n, coresEach)
		}
	}
	a.containers = append(a.containers, granted...)
	return granted, nil
}

// Launch starts fn as a process inside the container, after the container
// launch latency and JVM-startup CPU charge. It returns the spawned
// process.
func (c *Container) Launch(p *sim.Proc, name string, fn func(*sim.Proc)) *sim.Proc {
	eng := p.Engine()
	node, cfg := c.Node, c.cfg
	return eng.Spawn(name, func(cp *sim.Proc) {
		cp.Sleep(cfg.LaunchLatency)
		node.Exec(cp, cfg.LaunchCPUSeconds)
		fn(cp)
	})
}

// Release returns the application's containers to the pool.
func (a *Application) Release(p *sim.Proc) {
	if a.released {
		return
	}
	p.Sleep(a.rm.cfg.ReleaseLatency)
	for _, c := range a.containers {
		a.rm.freeCores[c.Node.ID] += c.Cores
	}
	a.containers = nil
	a.released = true
}
