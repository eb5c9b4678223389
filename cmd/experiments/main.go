// Command experiments reproduces every table and figure of the Granula
// paper's evaluation on the simulated platforms:
//
//	table1 — the platform-diversity table
//	fig3   — the domain-level breakdown of a graph-processing job
//	fig4   — the 4-level Giraph performance model
//	fig5   — domain-level job decomposition, BFS on dg1000 (both platforms)
//	fig6   — CPU utilization of Giraph operations
//	fig7   — CPU utilization of PowerGraph operations
//	fig8   — compute-workload distribution among Giraph workers
//
// Each reproduction prints the measured values next to the paper's
// reported values. With -out, SVG figures, the HTML report, and the raw
// performance archive are written to a directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/platforms"
	"repro/internal/viz"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig3, fig4, fig5, fig6, fig7, fig8")
	seed := flag.Int64("seed", 42, "dataset generation seed")
	quick := flag.Bool("quick", false, "use a smaller stand-in graph (faster, slightly noisier shapes)")
	outDir := flag.String("out", "", "directory for SVG figures, HTML report, and the archive (optional)")
	parallelism := flag.Int("parallelism", 0, "engine host parallelism; results are identical for every value (0 = NumCPU, 1 = serial)")
	flag.Parse()

	r := &runner{seed: *seed, quick: *quick, outDir: *outDir, parallelism: *parallelism}
	steps, order := experimentSteps(r)
	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := steps[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s)\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		if err := steps[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if err := r.writeOutputs(); err != nil {
		fmt.Fprintf(os.Stderr, "writing outputs: %v\n", err)
		os.Exit(1)
	}
}

// experimentSteps maps every -exp flag value to its reproduction step,
// plus the canonical run order. Tests drive the same map main does.
func experimentSteps(r *runner) (map[string]func() error, []string) {
	steps := map[string]func() error{
		"table1": r.table1,
		"fig3":   r.fig3,
		"fig4":   r.fig4,
		"fig5":   r.fig5,
		"fig6":   r.fig6,
		"fig7":   r.fig7,
		"fig8":   r.fig8,
	}
	return steps, []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
}

type runner struct {
	seed        int64
	quick       bool
	outDir      string
	parallelism int
	// vertices/edges, when non-zero, override the dataset size below
	// even -quick scale (used by the smoke test).
	vertices, edges int64

	dataset    *datagen.Dataset
	giraph     *platforms.Output
	powergraph *platforms.Output
	svgs       map[string]string
}

func (r *runner) dg1000() (*datagen.Dataset, error) {
	if r.dataset != nil {
		return r.dataset, nil
	}
	cfg := datagen.DG1000Shaped(r.seed)
	if r.quick {
		cfg.Vertices = 20_000
		cfg.Edges = 100_000
	}
	if r.vertices > 0 {
		cfg.Vertices = r.vertices
		cfg.Edges = r.edges
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	r.dataset = ds
	return ds, nil
}

// run executes BFS on dg1000 on the named platform at paper scale,
// caching the result across figures.
func (r *runner) run(platform string) (*platforms.Output, error) {
	cached := map[string]**platforms.Output{"Giraph": &r.giraph, "PowerGraph": &r.powergraph}[platform]
	if *cached != nil {
		return *cached, nil
	}
	ds, err := r.dg1000()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "[experiments] running BFS on %s (%s, %d edges at dg1000 scale)...\n",
		platform, ds.Name, len(ds.Edges))
	out, err := platforms.Run(platforms.Spec{
		Platform:        platform,
		Algorithm:       "BFS",
		Source:          datagen.PeripheralSource(ds.Graph),
		Dataset:         ds,
		HostParallelism: r.parallelism,
	})
	if err != nil {
		return nil, err
	}
	if len(out.ModelErrors) > 0 {
		return nil, fmt.Errorf("job does not conform to the %s model: %v", platform, out.ModelErrors[0])
	}
	*cached = out
	return out, nil
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n\n", title)
}

func (r *runner) table1() error {
	header("Table 1 — Diversity in (large-scale) graph processing platforms")
	fmt.Print(platforms.Table1())
	fmt.Println("\n(The platforms in bold in the paper — Giraph and PowerGraph — are fully simulated here.)")
	return nil
}

func (r *runner) fig3() error {
	header("Figure 3 — High-level breakdown of a graph processing job")
	m := core.DomainModel("GraphProcessingJob")
	fmt.Print(m.Render())
	fmt.Println("\nSetup: startup + cleanup (Ts)   Input/output: load + offload (Td)   Processing (Tp)")
	return nil
}

func (r *runner) fig4() error {
	header("Figure 4 — A Granula performance model of Giraph (4 levels)")
	fmt.Print(core.GiraphModel().Render())
	fmt.Println()
	fmt.Println("For comparison, the PowerGraph model:")
	fmt.Println()
	fmt.Print(core.PowerGraphModel().Render())
	return nil
}

func (r *runner) fig5() error {
	header("Figure 5 — Job decomposition at the domain level (BFS on dg1000, 8 nodes)")
	reported := map[string]paperBreakdown{"Giraph": paper.giraph, "PowerGraph": paper.powerGraph}
	for _, platform := range []string{"Giraph", "PowerGraph"} {
		out, err := r.run(platform)
		if err != nil {
			return err
		}
		bar, err := viz.BreakdownBar(out.Job, 72)
		if err != nil {
			return err
		}
		fmt.Print(bar)
		p := reported[platform]
		b := out.Breakdown
		below := ""
		if p.procBelow {
			below = "<"
		}
		fmt.Printf("  paper:    total %.2fs — setup %.1f%%, input/output %.1f%%, processing %s%.1f%%\n",
			p.total, p.setup, p.io, below, p.proc)
		fmt.Printf("  measured: total %.2fs — setup %.1f%%, input/output %.1f%%, processing %.1f%%\n\n",
			b.Total, b.SetupPercent(), b.IOPercent(), b.ProcessingPercent())
		r.addSVG("fig5-"+strings.ToLower(platform)+".svg", viz.SVGBreakdown(out.Job))
	}
	g, _ := r.run("Giraph")
	pg, _ := r.run("PowerGraph")
	fmt.Printf("cross-platform: PowerGraph/Giraph total runtime ratio %.2fx (paper: %.2fx)\n",
		pg.Breakdown.Total/g.Breakdown.Total, paperRatio())
	r.addSVG("fig5-comparison.svg", viz.SVGBreakdownComparison([]*archive.Job{g.Job, pg.Job}))
	return nil
}

func (r *runner) cpuFigure(platform string, figure string, paperPeak float64) error {
	out, err := r.run(platform)
	if err != nil {
		return err
	}
	fmt.Print(viz.CPUTimeline(out.Job, 36, 48))
	fmt.Printf("\n  paper peak:    %.2f CPU-seconds/second (cumulative over 8 nodes)\n", paperPeak)
	fmt.Printf("  measured peak: %.2f CPU-seconds/second\n", cumulativePeak(out.Job))
	r.addSVG(figure+"-"+strings.ToLower(platform)+".svg", viz.SVGCPUChart(out.Job))
	return nil
}

// cumulativePeak is the job's highest CPU use summed over all nodes at
// one sample time, in cpu-seconds per second at the default 1 s interval.
func cumulativePeak(job *archive.Job) float64 {
	peak := 0.0
	byTime := map[float64]float64{}
	for _, s := range job.EnvSamples {
		byTime[s.Time] += s.CPUUsed()
	}
	for _, v := range byTime {
		peak = max(peak, v)
	}
	return peak
}

func (r *runner) fig6() error {
	header("Figure 6 — CPU utilization of Giraph operations")
	if err := r.cpuFigure("Giraph", "fig6", paper.giraphPeak); err != nil {
		return err
	}
	fmt.Println("\n  paper observations to verify: setup idle; LoadGraph CPU-heavy; ProcessGraph bursty.")
	return nil
}

func (r *runner) fig7() error {
	header("Figure 7 — CPU utilization of PowerGraph operations")
	if err := r.cpuFigure("PowerGraph", "fig7", paper.powerGraphPeak); err != nil {
		return err
	}
	fmt.Println("\n  paper observations to verify: one node busy during LoadGraph; others join at finalize.")
	return nil
}

func (r *runner) fig8() error {
	header("Figure 8 — Compute-workload distribution among workers (Giraph)")
	out, err := r.run("Giraph")
	if err != nil {
		return err
	}
	fmt.Print(viz.WorkerGantt(out.Job, 96, 1, 0))
	fmt.Println()
	fmt.Println("Per-superstep compute imbalance (max/mean across workers):")
	longest, longestIdx := 0.0, -1
	for _, im := range viz.SuperstepImbalance(out.Job) {
		fmt.Printf("  Compute-%d: min %.2fs  max %.2fs  mean %.2fs  imbalance %.2fx\n",
			im.Superstep, im.Min, im.Max, im.Mean, im.Ratio)
		if im.Max > longest {
			longest, longestIdx = im.Max, im.Superstep
		}
	}
	fmt.Printf("\n  longest compute superstep: Compute-%d (%.2fs) — the paper highlights Compute-%d\n",
		longestIdx, longest, paper.longestCompute)
	fmt.Println("  paper observations to verify: uneven compute across supersteps and workers; visible sync gaps.")
	r.addSVG("fig8-giraph-gantt.svg", viz.SVGWorkerGantt(out.Job, 1, 0))
	return nil
}

func (r *runner) addSVG(name, content string) {
	if r.outDir == "" {
		return
	}
	if r.svgs == nil {
		r.svgs = map[string]string{}
	}
	r.svgs[name] = content
}

func (r *runner) writeOutputs() error {
	if r.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	for name, content := range r.svgs {
		if err := os.WriteFile(filepath.Join(r.outDir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	a := archive.New()
	for _, out := range []*platforms.Output{r.giraph, r.powergraph} {
		if out != nil {
			a.Add(out.Job)
		}
	}
	if len(a.Jobs) > 0 {
		f, err := os.Create(filepath.Join(r.outDir, "archive.json"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := a.Save(f); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(r.outDir, "report.html"), []byte(viz.HTMLReport(a)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[experiments] outputs written to %s\n", r.outDir)
	}
	return nil
}
