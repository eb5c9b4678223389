// Package zookeeper models the coordination service the Giraph-like
// platform synchronizes through: a znode tree with create/get/set/delete,
// watches, and the double-barrier recipe used for superstep
// synchronization. Every operation costs a network round-trip to the
// service plus a small CPU charge on its host node, which is what makes
// superstep synchronization overhead visible at the implementation level
// (the PreStep/PostStep gaps in the paper's Figure 8).
package zookeeper

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Config sets the service's cost profile.
type Config struct {
	// OpLatency is the round-trip latency of one znode operation.
	OpLatency float64
	// OpCPUSeconds is the CPU charged on the service's host per operation.
	OpCPUSeconds float64
	// ConnectLatency is the session-establishment cost.
	ConnectLatency float64
}

// Service is the coordination service, hosted on one cluster node.
type Service struct {
	host *cluster.Node
	cfg  Config
	eng  *sim.Engine

	nodes   map[string]bool
	watches map[string][]*sim.Event
}

// NewService starts a service hosted on the given node.
func NewService(host *cluster.Node, cfg Config) *Service {
	return &Service{
		host:    host,
		cfg:     cfg,
		eng:     host.CPU.Engine(),
		nodes:   map[string]bool{"/": true},
		watches: map[string][]*sim.Event{},
	}
}

// Session is one client's connection to the service.
type Session struct {
	svc    *Service
	Client string
	closed bool
}

// Connect establishes a session from a client process.
func (s *Service) Connect(p *sim.Proc, client string) *Session {
	p.Sleep(s.cfg.ConnectLatency)
	return &Session{svc: s, Client: client}
}

func (se *Session) op(p *sim.Proc) {
	if se.closed {
		panic("zookeeper: operation on closed session")
	}
	p.Sleep(se.svc.cfg.OpLatency)
	se.svc.host.Exec(p, se.svc.cfg.OpCPUSeconds)
}

// Close tears down the session.
func (se *Session) Close(p *sim.Proc) {
	if se.closed {
		return
	}
	se.op(p)
	se.closed = true
}

func validPath(path string) error {
	if !strings.HasPrefix(path, "/") || (len(path) > 1 && strings.HasSuffix(path, "/")) {
		return fmt.Errorf("zookeeper: invalid path %q", path)
	}
	return nil
}

func parent(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// Create makes a znode; the parent must exist.
func (se *Session) Create(p *sim.Proc, path string) error {
	se.op(p)
	if err := validPath(path); err != nil {
		return err
	}
	if _, ok := se.svc.nodes[path]; ok {
		return fmt.Errorf("zookeeper: node %q exists", path)
	}
	if _, ok := se.svc.nodes[parent(path)]; !ok {
		return fmt.Errorf("zookeeper: parent of %q missing", path)
	}
	se.svc.nodes[path] = true
	se.svc.trigger(parent(path))
	se.svc.trigger(path)
	return nil
}

// exists reports whether a znode is present.
func (se *Session) exists(p *sim.Proc, path string) bool {
	se.op(p)
	_, ok := se.svc.nodes[path]
	return ok
}

// Delete removes a znode; it must have no children.
func (se *Session) Delete(p *sim.Proc, path string) error {
	se.op(p)
	if _, ok := se.svc.nodes[path]; !ok {
		return fmt.Errorf("zookeeper: no node %q", path)
	}
	for other := range se.svc.nodes {
		if other != path && parent(other) == path {
			return fmt.Errorf("zookeeper: node %q has children", path)
		}
	}
	delete(se.svc.nodes, path)
	se.svc.trigger(parent(path))
	se.svc.trigger(path)
	return nil
}

// children lists the names of a znode's children, sorted.
func (se *Session) children(p *sim.Proc, path string) ([]string, error) {
	se.op(p)
	if _, ok := se.svc.nodes[path]; !ok {
		return nil, fmt.Errorf("zookeeper: no node %q", path)
	}
	var out []string
	for other := range se.svc.nodes {
		if other != path && parent(other) == path {
			out = append(out, other[strings.LastIndex(other, "/")+1:])
		}
	}
	sort.Strings(out)
	return out, nil
}

// watch returns a one-shot event fired at the next change of path (create,
// data change, delete, or child change).
func (se *Session) watch(p *sim.Proc, path string) *sim.Event {
	se.op(p)
	ev := sim.NewEvent(se.svc.eng)
	se.svc.watches[path] = append(se.svc.watches[path], ev)
	return ev
}

func (s *Service) trigger(path string) {
	ws := s.watches[path]
	if len(ws) == 0 {
		return
	}
	delete(s.watches, path)
	for _, ev := range ws {
		ev.Fire()
	}
}

// DoubleBarrier is the classic ZooKeeper double-barrier recipe: all n
// participants Enter before any proceeds, and all Leave before any exits.
// Giraph uses this pattern for superstep synchronization.
type DoubleBarrier struct {
	se   *Session
	path string
	n    int
	name string
}

// NewDoubleBarrier prepares a barrier rooted at path for n participants,
// with a participant name unique within the barrier.
func NewDoubleBarrier(se *Session, path string, n int, name string) *DoubleBarrier {
	return &DoubleBarrier{se: se, path: path, n: n, name: name}
}

// Enter joins the barrier and blocks until all n participants have joined.
func (b *DoubleBarrier) Enter(p *sim.Proc) error {
	if !b.se.exists(p, b.path) {
		// First arrival creates the barrier root; a concurrent create by
		// another participant is fine.
		_ = b.se.Create(p, b.path)
	}
	if err := b.se.Create(p, b.path+"/"+b.name); err != nil {
		return err
	}
	for {
		children, err := b.se.children(p, b.path)
		if err != nil {
			return err
		}
		if len(children) >= b.n {
			return nil
		}
		ev := b.se.watch(p, b.path)
		// Re-check after setting the watch to avoid a lost wakeup.
		children, err = b.se.children(p, b.path)
		if err != nil {
			return err
		}
		if len(children) >= b.n {
			return nil
		}
		ev.Wait(p)
	}
}

// Leave removes this participant and blocks until all have left.
func (b *DoubleBarrier) Leave(p *sim.Proc) error {
	if err := b.se.Delete(p, b.path+"/"+b.name); err != nil {
		return err
	}
	for {
		children, err := b.se.children(p, b.path)
		if err != nil {
			return err
		}
		if len(children) == 0 {
			return nil
		}
		ev := b.se.watch(p, b.path)
		children, err = b.se.children(p, b.path)
		if err != nil {
			return err
		}
		if len(children) == 0 {
			return nil
		}
		ev.Wait(p)
	}
}
