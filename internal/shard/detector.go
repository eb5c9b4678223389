package shard

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// HealthPath is the lightweight cluster-internal liveness probe served
// by every shard (and consumed by the failure detector). Unlike
// /healthz it carries no load information — it exists to answer "is
// this process reachable" as cheaply as possible, so detector traffic
// stays negligible at any probe rate.
const HealthPath = "/internal/health"

// nodeState is the failure detector's verdict on one node.
type nodeState int

const (
	// nodeUp: the node answers probes; route to it normally.
	nodeUp nodeState = iota
	// nodeSuspect: consecutive misses crossed suspectAfter but not yet
	// DownAfter. Suspects keep their ring position (a latency spike must
	// not reorder owners) but operators can see the wobble.
	nodeSuspect
	// nodeDown: consecutive misses crossed DownAfter. The router demotes
	// the node to the tail of every replica set (promotion) and writers
	// journal hints for it instead of waiting on its timeout.
	nodeDown
)

func (s nodeState) String() string {
	switch s {
	case nodeSuspect:
		return "suspect"
	case nodeDown:
		return "down"
	default:
		return "up"
	}
}

// nodeStatus is one node's row in a detector snapshot.
type nodeStatus struct {
	ID     string    `json:"id"`
	State  nodeState `json:"-"`
	Status string    `json:"status"`
	Misses int       `json:"misses,omitempty"`
}

// Hysteresis thresholds. A single dropped probe (GC pause, latency
// spike) moves a node at most to Suspect, which does not change routing,
// and one lucky probe does not flap a dead node back.
const (
	suspectAfter     = 2 // consecutive misses before Up -> Suspect
	defaultDownAfter = 4 // consecutive misses before -> Down
	upAfter          = 2 // consecutive hits before Suspect/Down -> Up
)

// DetectorOptions tunes NewDetector; zero values select defaults.
type DetectorOptions struct {
	// Client issues the health probes; nil selects a short-timeout
	// client (probes must fail fast, not queue behind slow requests).
	Client *http.Client
	// Interval is the probe period; 0 selects 500 ms. One probe is
	// bounded by min(Interval, 1 s).
	Interval time.Duration
	// DownAfter is the consecutive misses before -> Down; < 1 selects 4,
	// and it is never below the Suspect threshold (2).
	DownAfter int
	// Metrics receives transition counters; nil creates a private set.
	Metrics *SelfHealMetrics
}

// Detector is the heartbeat-based failure detector shared by the router
// and the shard nodes: a probe loop GETs every peer's /internal/health
// on a fixed interval and turns consecutive outcomes into Up / Suspect
// / Down verdicts with hysteresis on both edges. Transport-level
// failures observed by the request path can be fed in passively via
// observe, so a dead node is noticed between probe ticks too. It is
// safe for concurrent use.
type Detector struct {
	*ticker
	m         *Map
	self      string
	peer      peerClient
	timeout   time.Duration
	downAfter int
	metrics   *SelfHealMetrics

	mu    sync.Mutex
	nodes map[string]*nodeHealth
}

// nodeHealth is one node's hysteresis state.
type nodeHealth struct {
	state  nodeState
	misses int // consecutive failed observations
	hits   int // consecutive successful observations while not Up
}

// NewDetector builds a detector over the map. self, when non-empty,
// names the local node (never probed — a node does not suspect itself);
// the router passes "".
func NewDetector(m *Map, self string, opts DetectorOptions) *Detector {
	interval := opts.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	timeout := interval
	if timeout > time.Second {
		timeout = time.Second
	}
	da := opts.DownAfter
	if da < 1 {
		da = defaultDownAfter
	}
	if da < suspectAfter {
		da = suspectAfter
	}
	d := &Detector{
		m: m, self: self, peer: newPeerClient(opts.Client, timeout),
		timeout: timeout, downAfter: da, metrics: orPrivate(opts.Metrics),
		nodes: map[string]*nodeHealth{},
	}
	d.ticker = newTicker(interval, d.probeAll)
	for _, n := range m.Shards {
		d.nodes[n.ID] = &nodeHealth{state: nodeUp}
	}
	return d
}

// probeAll probes every peer concurrently and feeds the outcomes in.
func (d *Detector) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range d.m.Shards {
		if n.ID == d.self {
			continue
		}
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			d.observe(n.ID, d.probe(ctx, n))
		}(n)
	}
	wg.Wait()
}

// probe issues one health check under its own deadline: a
// caller-supplied client (e.g. a test's partition transport) may have
// no timeout, and a hanging probe must count as a miss, not stall the
// loop.
func (d *Detector) probe(ctx context.Context, n Node) bool {
	ctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	ok := d.peer.alive(ctx, n)
	pick(ok, d.metrics.probesOK, d.metrics.probesMiss).Inc()
	return ok
}

// observe feeds one observation of a node — a probe outcome, or a
// passive signal from the request path (the router reports transport
// errors here; HTTP error statuses do NOT count as misses, a process
// answering 5xx is alive). Unknown nodes are ignored.
func (d *Detector) observe(nodeID string, ok bool) {
	d.mu.Lock()
	h, known := d.nodes[nodeID]
	if !known {
		d.mu.Unlock()
		return
	}
	from := h.state
	if ok {
		h.misses = 0
		if h.state != nodeUp {
			h.hits++
			if h.hits >= upAfter {
				h.state = nodeUp
				h.hits = 0
			}
		}
	} else {
		h.hits = 0
		h.misses++
		switch {
		case h.misses >= d.downAfter:
			h.state = nodeDown
		case h.misses >= suspectAfter && h.state == nodeUp:
			h.state = nodeSuspect
		}
	}
	to := h.state
	d.mu.Unlock()
	if from != to {
		d.metrics.transitions.With(to.String()).Inc()
	}
}

// stateOf returns the detector's verdict on a node; unknown nodes report
// Up (an unknown node is not evidence of failure).
func (d *Detector) stateOf(nodeID string) nodeState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.nodes[nodeID]; ok {
		return h.state
	}
	return nodeUp
}

// isDown reports whether a node is marked down.
func (d *Detector) isDown(nodeID string) bool { return d.stateOf(nodeID) == nodeDown }

// snapshot returns every node's status, sorted by ID, for /cluster and
// the metrics exposition.
func (d *Detector) snapshot() []nodeStatus {
	d.mu.Lock()
	out := make([]nodeStatus, 0, len(d.nodes))
	for id, h := range d.nodes {
		out = append(out, nodeStatus{ID: id, State: h.state, Status: h.state.String(), Misses: h.misses})
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
