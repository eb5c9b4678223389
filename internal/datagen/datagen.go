// Package datagen generates synthetic graphs with the structural
// properties that drive the behaviours studied in the Granula paper. It is
// the stand-in for the LDBC Datagen datasets (the paper's dg1000, a social
// network with 1.03 billion vertices and edges): since the real generator
// and dataset are unavailable here, we synthesize graphs with a power-law
// degree distribution (Chung–Lu with Zipf weights), plus R-MAT and uniform
// generators for comparison and testing. All generators are deterministic
// for a given seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Kind selects a generator family.
type Kind int

const (
	// SocialNetwork is a Chung–Lu graph with Zipf-distributed expected
	// degrees: skewed like real social networks (and like LDBC Datagen
	// output), producing the workload imbalance visible in Figure 8.
	SocialNetwork Kind = iota
	// RMAT is the recursive-matrix generator (Graph500-style).
	RMAT
	// Uniform is an Erdős–Rényi-style G(n,m) graph.
	Uniform
)

func (k Kind) String() string {
	switch k {
	case SocialNetwork:
		return "social-network"
	case RMAT:
		return "rmat"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes graph generation.
type Config struct {
	Kind      Kind
	Vertices  int64
	Edges     int64
	Seed      int64
	Directed  bool
	ZipfS     float64 // Zipf exponent for SocialNetwork; default 1.3
	RMATProbs [4]float64
	// Locality, for SocialNetwork, is the fraction of edges drawn inside
	// a local community window instead of globally by degree weight.
	// Social networks mix both: hubs attract global edges, but most
	// friendships are local. Locality > 0 raises the graph's effective
	// diameter, giving BFS the multi-hop frontier curve real Datagen
	// graphs show. 0 (default) is pure Chung–Lu.
	Locality float64
	// LocalWindow is the community window radius for local edges;
	// 0 selects Vertices/100.
	LocalWindow int64
	// Name labels the dataset in logs and archives (e.g. "dg1000").
	Name string
}

// Dataset is a generated graph plus the metadata the platforms need to
// "load" it: its name and its on-disk encoding size.
type Dataset struct {
	Name     string
	Graph    *graph.Graph
	Edges    []graph.Edge
	Directed bool
	// EdgeBytes is the size of one encoded edge in the simulated on-disk
	// edge-list format (two decimal vertex IDs plus separators).
	EdgeBytes int64
}

// SizeBytes returns the simulated on-disk size of the edge-list file.
func (d *Dataset) SizeBytes() int64 {
	return int64(len(d.Edges)) * d.EdgeBytes
}

// defaultEdgeBytes is the simulated encoding size per edge: two ~9-digit
// decimal IDs, a space and a newline.
const defaultEdgeBytes = 20

// Generate produces a dataset from cfg.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Vertices <= 0 {
		return nil, fmt.Errorf("datagen: vertices must be positive, got %d", cfg.Vertices)
	}
	if cfg.Edges < 0 {
		return nil, fmt.Errorf("datagen: negative edge count %d", cfg.Edges)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var edges []graph.Edge
	switch cfg.Kind {
	case SocialNetwork:
		s := cfg.ZipfS
		if s == 0 {
			s = 1.3
		}
		if s <= 1 {
			return nil, fmt.Errorf("datagen: Zipf exponent must be > 1, got %g", s)
		}
		if cfg.Locality < 0 || cfg.Locality > 1 {
			return nil, fmt.Errorf("datagen: locality must be in [0,1], got %g", cfg.Locality)
		}
		window := cfg.LocalWindow
		if window == 0 {
			window = cfg.Vertices / 100
		}
		if window < 1 {
			window = 1
		}
		edges = socialNetwork(rng, cfg.Vertices, cfg.Edges, s, cfg.Locality, window)
	case RMAT:
		probs := cfg.RMATProbs
		if probs == ([4]float64{}) {
			probs = [4]float64{0.57, 0.19, 0.19, 0.05}
		}
		sum := probs[0] + probs[1] + probs[2] + probs[3]
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("datagen: RMAT probabilities sum to %g, want 1", sum)
		}
		edges = rmat(rng, cfg.Vertices, cfg.Edges, probs)
	case Uniform:
		edges = uniform(rng, cfg.Vertices, cfg.Edges)
	default:
		return nil, fmt.Errorf("datagen: unknown kind %v", cfg.Kind)
	}
	g, err := graph.FromEdges(cfg.Vertices, edges, cfg.Directed)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("%s-n%d-m%d", cfg.Kind, cfg.Vertices, cfg.Edges)
	}
	return &Dataset{
		Name:      name,
		Graph:     g,
		Edges:     edges,
		Directed:  cfg.Directed,
		EdgeBytes: defaultEdgeBytes,
	}, nil
}

// socialNetwork samples m edges: a (1-locality) fraction Chung–Lu style
// with endpoint probabilities proportional to Zipf(s) weights (vertex v
// has weight (v+1)^-s, so low IDs are hubs), and a locality fraction
// connecting uniformly-chosen vertices to neighbors within the community
// window around them.
func socialNetwork(rng *rand.Rand, n, m int64, s, locality float64, window int64) []graph.Edge {
	weights := make([]float64, n)
	for v := int64(0); v < n; v++ {
		weights[v] = math.Pow(float64(v+1), -s)
	}
	sampler := newAlias(weights, rng)
	edges := make([]graph.Edge, 0, m)
	for int64(len(edges)) < m {
		var u, v graph.VertexID
		if rng.Float64() < locality {
			u = graph.VertexID(rng.Int63n(n))
			// Offset in [-window, window], zero excluded below via the
			// self-loop check; wraps around the community ring.
			off := rng.Int63n(2*window+1) - window
			v = graph.VertexID(((int64(u)+off)%n + n) % n)
		} else {
			u = graph.VertexID(sampler.sample())
			v = graph.VertexID(sampler.sample())
		}
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v})
	}
	return edges
}

// rmat generates m edges by recursive quadrant descent over the adjacency
// matrix. The vertex count is rounded up to a power of two internally;
// out-of-range endpoints are re-sampled.
func rmat(rng *rand.Rand, n, m int64, probs [4]float64) []graph.Edge {
	levels := 0
	for int64(1)<<levels < n {
		levels++
	}
	edges := make([]graph.Edge, 0, m)
	for int64(len(edges)) < m {
		var u, v int64
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			switch {
			case r < probs[0]:
				// top-left: no bits set
			case r < probs[0]+probs[1]:
				v |= 1 << l
			case r < probs[0]+probs[1]+probs[2]:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return edges
}

// uniform samples m edges uniformly, rejecting self-loops.
func uniform(rng *rand.Rand, n, m int64) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for int64(len(edges)) < m {
		u := graph.VertexID(rng.Int63n(n))
		v := graph.VertexID(rng.Int63n(n))
		if u == v && n > 1 {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v})
	}
	return edges
}

// DG1000Shaped returns the configuration we use as the laptop-scale
// stand-in for the paper's dg1000 dataset: a directed social-network graph
// whose degree skew mirrors an LDBC Datagen friendship network. The
// platform cost models scale work on this graph up to dg1000-scale
// simulated seconds (see internal/platforms).
func DG1000Shaped(seed int64) Config {
	return Config{
		Kind:        SocialNetwork,
		Vertices:    200_000,
		Edges:       1_000_000,
		Seed:        seed,
		Directed:    true,
		ZipfS:       1.3,
		Locality:    0.85,
		LocalWindow: 600,
		Name:        "dg1000",
	}
}

// PeripheralSource returns a deterministic low-degree vertex suitable as a
// BFS/SSSP source: the first vertex at or after the 3/4 point of the ID
// space with out-degree in [1, 4]. High-ID vertices have the smallest Zipf
// weights, so this picks an "ordinary user" far from the hubs — matching
// how Graphalytics sources produce multi-hop frontier curves. It falls
// back to vertex 0 if no such vertex exists.
func PeripheralSource(g *graph.Graph) graph.VertexID {
	n := g.NumVertices()
	for v := n * 3 / 4; v < n; v++ {
		d := g.OutDegree(graph.VertexID(v))
		if d >= 1 && d <= 4 {
			return graph.VertexID(v)
		}
	}
	return 0
}
