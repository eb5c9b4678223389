package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/algorithms"
	"repro/internal/datagen"
	"repro/internal/platforms"
	"repro/internal/service"
)

// Defaults the executor applies to a job request that leaves them out.
const (
	defaultVertices   = 2000
	defaultEdges      = 10_000
	defaultIterations = 10
)

// rotation is the platform × algorithm order the serving workloads
// submit in.
var rotation = func() (out [][2]string) {
	for _, alg := range []string{"BFS", "PageRank", "WCC"} {
		for _, pf := range []string{"Giraph", "PowerGraph", "OpenG"} {
			out = append(out, [2]string{pf, alg})
		}
	}
	return out
}()

// smallDataset generates the graph the executor would for a request
// with this seed and default sizes.
func smallDataset(seed int64) (datagen.Config, *datagen.Dataset, error) {
	cfg := datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: defaultVertices, Edges: defaultEdges,
		Seed: seed, Directed: true,
	}
	ds, err := datagen.Generate(cfg)
	return cfg, ds, err
}

// specFor builds the harness spec the executor builds for a request.
func specFor(id, platform, algorithm string, nodes int, ds *datagen.Dataset) platforms.Spec {
	spec := platforms.Spec{
		Platform: platform, Algorithm: algorithm, Dataset: ds, JobID: id,
		Source: datagen.PeripheralSource(ds.Graph), Iterations: defaultIterations,
	}
	if nodes > 0 {
		spec.Cluster = platforms.DAS5Config()
		spec.Cluster.Nodes = nodes
	}
	return spec
}

// checkOutput is the per-input oracle of a harness run: the algorithm's
// values equal the internal/algorithms reference, the job conforms to
// its platform's model and passes structural validation.
func checkOutput(spec platforms.Spec, out *platforms.Output) error {
	g := spec.Dataset.Graph
	var want []float64
	switch spec.Algorithm {
	case "BFS":
		want = algorithms.RefBFS(g, spec.Source)
	case "SSSP":
		want = algorithms.RefSSSP(g, spec.Source)
	case "WCC":
		want = algorithms.RefWCC(g)
	case "PageRank":
		// The GAS program skips dangling-mass redistribution.
		if spec.Platform == "PowerGraph" {
			want = algorithms.RefPageRankPlain(g, spec.Iterations, 0.85)
		} else {
			want = algorithms.RefPageRank(g, spec.Iterations, 0.85)
		}
	default:
		return fmt.Errorf("no reference for algorithm %q", spec.Algorithm)
	}
	if len(out.Values) != len(want) {
		return fmt.Errorf("%s/%s: %d values, reference has %d", spec.Platform, spec.Algorithm, len(out.Values), len(want))
	}
	for v, w := range want {
		got := out.Values[v]
		if got != w && math.Abs(got-w) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
			return fmt.Errorf("%s/%s: vertex %d is %v, reference says %v", spec.Platform, spec.Algorithm, v, got, w)
		}
	}
	if len(out.ModelErrors) > 0 {
		return fmt.Errorf("%s/%s: %d model errors, first: %v", spec.Platform, spec.Algorithm, len(out.ModelErrors), out.ModelErrors[0])
	}
	if err := out.Job.Validate(); err != nil {
		return fmt.Errorf("%s/%s: %w", spec.Platform, spec.Algorithm, err)
	}
	return nil
}

// template is one distinct harness output of a corpus.
type template struct {
	spec platforms.Spec
	out  *platforms.Output
}

// corpusSeed seeds the graph of the corpus. The corpus is the same in
// every run; the run's seed decides what is read from it.
const corpusSeed = 42

// corpusTemplates runs the distinct jobs a corpus is made of: three
// platforms × four algorithms × two cluster sizes on one graph.
func corpusTemplates() (datagen.Config, []template, error) {
	cfg, ds, err := smallDataset(corpusSeed)
	if err != nil {
		return cfg, nil, err
	}
	var out []template
	for _, nodes := range []int{2, 4} {
		for _, pf := range []string{"Giraph", "PowerGraph", "OpenG"} {
			for _, alg := range []string{"BFS", "PageRank", "WCC", "SSSP"} {
				spec := specFor(fmt.Sprintf("tpl-%s-%s-%d", pf, alg, nodes), pf, alg, nodes, ds)
				res, err := platforms.RunContext(context.Background(), spec)
				if err != nil {
					return cfg, nil, fmt.Errorf("corpus template %s: %w", spec.JobID, err)
				}
				out = append(out, template{spec: spec, out: res})
			}
		}
	}
	return cfg, out, nil
}

// corpus is a durable store holding n jobs made from the templates,
// closed and reopened as a restarted server would find it.
type corpus struct {
	node      *node
	ids       []string
	summaries map[string]service.Summary
	templates []template
	tplOf     map[string]int // job ID -> template index
	dsCfg     datagen.Config
	coldStart time.Duration
}

// buildCorpus writes n jobs with fsync on, closes the store, reopens it
// (timed until the first read succeeds: cold_start_s) and serves it.
func buildCorpus(dir string, n int, cfg nodeConfig) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dsCfg, templates, err := corpusTemplates()
	if err != nil {
		return nil, err
	}
	c := &corpus{templates: templates, summaries: map[string]service.Summary{}, tplOf: map[string]int{}, dsCfg: dsCfg}
	db, store, _, _, err := openStore(dir, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		t := templates[i%len(templates)]
		id := fmt.Sprintf("corpus-%05d", i)
		job := *t.out.Job // the operation tree is shared; it is read-only once stored
		job.ID = id
		sum := summaryOf(id, t.spec.Algorithm, t.out)
		if err := store.Put(&job, sum); err != nil {
			store.Close()
			db.Close()
			return nil, fmt.Errorf("corpus put %s: %w", id, err)
		}
		c.ids = append(c.ids, id)
		c.summaries[id] = sum
		c.tplOf[id] = i % len(templates)
	}
	store.Close()
	if err := db.Close(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	metrics := service.NewMetrics()
	db, store, _, _, err = openStore(dir, metrics)
	if err != nil {
		return nil, err
	}
	c.node, err = serveStore(dir, db, store, metrics, cfg)
	if err != nil {
		return nil, err
	}
	cl := newClient(c.node.url, 1)
	defer cl.close()
	if _, err := cl.getOK("/jobs/" + c.ids[0] + "/query?mission=Startup"); err != nil {
		c.node.stop()
		return nil, fmt.Errorf("first read after reopen: %w", err)
	}
	c.coldStart = time.Since(t0)
	if store.Len() != n {
		c.node.stop()
		return nil, fmt.Errorf("reopened store holds %d jobs, wrote %d", store.Len(), n)
	}
	return c, nil
}

// oracleJobs lists the corpus for the /query2 oracle.
func (c *corpus) oracleJobs() []oracleJob {
	out := make([]oracleJob, len(c.ids))
	for i, id := range c.ids {
		t := c.tplOf[id]
		out[i] = oracleJob{id: id, tree: c.templates[t].spec.JobID, job: c.templates[t].out.Job, meta: metaOf(id, c.summaries[id])}
	}
	return out
}

// layerInputs picks one template per platform for the layer replay.
func (c *corpus) layerInputs() []layerInput {
	var out []layerInput
	seen := map[string]bool{}
	for _, t := range c.templates {
		if seen[t.spec.Platform] {
			continue
		}
		seen[t.spec.Platform] = true
		out = append(out, layerInput{dsCfg: c.dsCfg, ds: t.spec.Dataset, spec: t.spec})
	}
	return out
}
