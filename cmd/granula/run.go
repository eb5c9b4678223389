package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/platforms"
	"repro/internal/viz"
)

// runCmd runs one graph-processing job on a simulated platform, prints
// its domain-level breakdown and model check, and with -archive writes
// the performance archive the other subcommands read.
func runCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	platform := fs.String("platform", "giraph", "platform to run: giraph or powergraph")
	algorithm := fs.String("algorithm", "bfs", "algorithm: bfs, sssp, pagerank, wcc, cdlp")
	vertices := fs.Int64("vertices", 50_000, "synthetic graph vertex count")
	edges := fs.Int64("edges", 250_000, "synthetic graph edge count")
	kind := fs.String("graph", "social-network", "generator: social-network, rmat, uniform")
	seed := fs.Int64("seed", 42, "generator seed")
	scale := fs.Float64("scale", 1, "work scale factor; 0 scales to dg1000 size")
	source := fs.Int64("source", -1, "source vertex for bfs/sssp; -1 picks a peripheral vertex")
	iterations := fs.Int("iterations", 10, "iterations for pagerank/cdlp")
	archivePath := fs.String("archive", "", "write the performance archive JSON here")
	appendTo := fs.Bool("append", false, "append the job to an existing archive file instead of overwriting")
	return func(stdout, stderr io.Writer) int {
		cfg := datagen.Config{Kind: -1, Vertices: *vertices, Edges: *edges, Seed: *seed, Directed: true}
		for k := datagen.SocialNetwork; k <= datagen.Uniform; k++ {
			if k.String() == *kind {
				cfg.Kind = k
			}
		}
		switch cfg.Kind {
		case -1:
			return errorf(stderr, "unknown graph kind %q", *kind)
		case datagen.SocialNetwork:
			base := datagen.DG1000Shaped(*seed)
			cfg.ZipfS, cfg.Locality, cfg.LocalWindow = base.ZipfS, base.Locality, base.LocalWindow
		}
		ds, err := datagen.Generate(cfg)
		if err != nil {
			return errorf(stderr, "generate dataset: %v", err)
		}
		src := graph.VertexID(*source)
		if *source < 0 {
			src = datagen.PeripheralSource(ds.Graph)
		}
		fmt.Fprintf(stdout, "dataset %s: %d vertices, %d edges (seed %d)\n", ds.Name, ds.Graph.NumVertices(), len(ds.Edges), *seed)
		fmt.Fprintf(stdout, "running %s on %s (source %d, scale %.0f)...\n", *algorithm, *platform, src, *scale)
		out, err := platforms.Run(platforms.Spec{
			Platform:   *platform,
			Algorithm:  *algorithm,
			Source:     src,
			Iterations: *iterations,
			Dataset:    ds,
			WorkScale:  *scale,
		})
		if err != nil {
			return errorf(stderr, "run: %v", err)
		}
		bar, err := viz.BreakdownBar(out.Job, 60)
		if err != nil {
			return errorf(stderr, "breakdown: %v", err)
		}
		fmt.Fprintf(stdout, "\n%s\nsupersteps/iterations: %d\n", bar, out.Supersteps)
		if len(out.ModelErrors) == 0 {
			fmt.Fprintf(stdout, "model check: job conforms to the %s performance model\n", out.Model.Platform)
		} else {
			fmt.Fprintf(stdout, "model check: %d mismatches, first: %v\n", len(out.ModelErrors), out.ModelErrors[0])
		}

		if *archivePath != "" {
			a := archive.New()
			if *appendTo {
				existing, err := loadArchive(*archivePath)
				switch {
				case err == nil:
					a = existing
				case !errors.Is(err, os.ErrNotExist):
					return errorf(stderr, "%v", err)
				}
			}
			a.Add(out.Job)
			if err := writeFile(*archivePath, a.Save); err != nil {
				return errorf(stderr, "write archive: %v", err)
			}
			fmt.Fprintf(stdout, "archive written to %s (%d job(s))\n", *archivePath, len(a.Jobs))
		}
		if len(out.ModelErrors) > 0 {
			return exitFinding
		}
		return exitOK
	}
}
