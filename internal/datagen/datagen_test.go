package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Kind: SocialNetwork, Vertices: 500, Edges: 2000, Seed: 42, Directed: true}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	base := Config{Kind: SocialNetwork, Vertices: 500, Edges: 2000, Directed: true}
	c1, c2 := base, base
	c1.Seed, c2.Seed = 1, 2
	a, _ := Generate(c1)
	b, _ := Generate(c2)
	same := true
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

// degreeSkew is max/mean out-degree: ~1 for regular graphs, large for
// power-law-like ones.
func degreeSkew(g *graph.Graph) float64 {
	var max, sum int64
	for v := int64(0); v < g.NumVertices(); v++ {
		d := g.OutDegree(graph.VertexID(v))
		sum += d
		if d > max {
			max = d
		}
	}
	return float64(max) * float64(g.NumVertices()) / float64(sum)
}

func TestSocialNetworkIsSkewed(t *testing.T) {
	d, err := Generate(Config{Kind: SocialNetwork, Vertices: 5000, Edges: 50000, Seed: 7, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	st := degreeSkew(d.Graph)
	if st < 10 {
		t.Fatalf("social network skew = %.1f, want >= 10 (power-law hubs)", st)
	}
	uni, err := Generate(Config{Kind: Uniform, Vertices: 5000, Edges: 50000, Seed: 7, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	ust := degreeSkew(uni.Graph)
	if st <= ust {
		t.Fatalf("social skew %.1f not above uniform skew %.1f", st, ust)
	}
}

func TestRMATGenerates(t *testing.T) {
	d, err := Generate(Config{Kind: RMAT, Vertices: 1024, Edges: 8192, Seed: 3, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(d.Edges)) != 8192 {
		t.Fatalf("edges = %d, want 8192", len(d.Edges))
	}
	st := degreeSkew(d.Graph)
	if st < 3 {
		t.Fatalf("RMAT skew = %.1f, want noticeable skew", st)
	}
}

func TestRMATRejectsBadProbs(t *testing.T) {
	_, err := Generate(Config{
		Kind: RMAT, Vertices: 64, Edges: 100, Seed: 1,
		RMATProbs: [4]float64{0.5, 0.5, 0.5, 0.5},
	})
	if err == nil {
		t.Fatal("expected error for probabilities not summing to 1")
	}
}

func TestUniformEdgesInRange(t *testing.T) {
	d, err := Generate(Config{Kind: Uniform, Vertices: 100, Edges: 1000, Seed: 5, Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges {
		if e.Src < 0 || e.Src >= 100 || e.Dst < 0 || e.Dst >= 100 {
			t.Fatalf("edge out of range: %v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self loop generated: %v", e)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Kind: Uniform, Vertices: 0, Edges: 10}); err == nil {
		t.Fatal("expected error for zero vertices")
	}
	if _, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: -1}); err == nil {
		t.Fatal("expected error for negative edges")
	}
	if _, err := Generate(Config{Kind: Kind(99), Vertices: 10, Edges: 1}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := Generate(Config{Kind: SocialNetwork, Vertices: 10, Edges: 1, ZipfS: 0.5}); err == nil {
		t.Fatal("expected error for Zipf exponent <= 1")
	}
}

func TestDatasetSizeBytes(t *testing.T) {
	d, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeBytes() != 100*defaultEdgeBytes {
		t.Fatalf("SizeBytes = %d, want %d", d.SizeBytes(), 100*defaultEdgeBytes)
	}
}

func TestDatasetDefaultName(t *testing.T) {
	d, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "uniform-n10-m5" {
		t.Fatalf("Name = %q", d.Name)
	}
	named, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: 5, Seed: 1, Name: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if named.Name != "custom" {
		t.Fatalf("Name = %q, want custom", named.Name)
	}
}

func TestDG1000ShapedConfig(t *testing.T) {
	cfg := DG1000Shaped(1)
	if cfg.Name != "dg1000" || !cfg.Directed || cfg.Kind != SocialNetwork {
		t.Fatalf("unexpected dg1000 config: %+v", cfg)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	weights := []float64{1, 2, 4, 8}
	a := newAlias(weights, rng)
	counts := make([]int, 4)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[a.sample()]++
	}
	total := 15.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / trials
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("index %d: frequency %.4f, want ~%.4f", i, got, want)
		}
	}
}

func TestAliasPanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", weights)
				}
			}()
			newAlias(weights, rng)
		}()
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{SocialNetwork: "social-network", RMAT: "rmat", Uniform: "uniform"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}
