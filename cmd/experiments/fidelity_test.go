package main

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/archive"
	"repro/internal/platforms"
	"repro/internal/viz"
)

// claim is one number or observation of the paper's Figures 5-8 with the
// tolerance this reproduction is held to. TestPaperGolden pins the bytes
// of one run; the claims pin what those bytes must keep saying, so a
// calibration change that keeps every claim may move the golden, and one
// that breaks a claim fails here with the paper's value in the message.
type claim struct {
	name string
	// paper is the paper's number or, for an observation (says), the
	// bound this reproduction reads it as.
	paper     float64
	says      string
	tolerance string // as stated in the failure message
	holds     func(got, paper float64) bool
	measured  func(g, pg *platforms.Output) float64
	// deviation, when set, marks a claim this reproduction does not
	// meet, with the reason; it is reported, not asserted.
	deviation string
}

// withinRel admits got within frac of paper, relatively.
func withinRel(frac float64) func(got, paper float64) bool {
	return func(got, paper float64) bool { return math.Abs(got-paper) <= frac*paper }
}

// withinPoints admits a share within pp percentage points of paper.
func withinPoints(pp float64) func(got, paper float64) bool {
	return func(got, paper float64) bool { return math.Abs(got-paper) <= pp }
}

func below(got, paper float64) bool   { return got < paper }
func equal(got, paper float64) bool   { return got == paper }
func atLeast(got, paper float64) bool { return got >= paper }

// paperClaims lists every claim, each reading its value from the paper
// table the transcript prints.
func paperClaims() []claim {
	g, pg := paper.giraph, paper.powerGraph
	gb := func(f func(*platforms.Output) float64) func(g, pg *platforms.Output) float64 {
		return func(g, _ *platforms.Output) float64 { return f(g) }
	}
	pgb := func(f func(*platforms.Output) float64) func(g, pg *platforms.Output) float64 {
		return func(_, pg *platforms.Output) float64 { return f(pg) }
	}
	total := func(o *platforms.Output) float64 { return o.Breakdown.Total }
	setup := func(o *platforms.Output) float64 { return o.Breakdown.SetupPercent() }
	io := func(o *platforms.Output) float64 { return o.Breakdown.IOPercent() }
	proc := func(o *platforms.Output) float64 { return o.Breakdown.ProcessingPercent() }
	peak := func(o *platforms.Output) float64 { return cumulativePeak(o.Job) }
	return []claim{
		{name: "Figure 5: Giraph total (s)", paper: g.total, tolerance: "±10 %", holds: withinRel(0.10), measured: gb(total)},
		{name: "Figure 5: Giraph setup (%)", paper: g.setup, tolerance: "±3 points", holds: withinPoints(3), measured: gb(setup)},
		{name: "Figure 5: Giraph input/output (%)", paper: g.io, tolerance: "±3 points", holds: withinPoints(3), measured: gb(io)},
		{name: "Figure 5: Giraph processing (%)", paper: g.proc, tolerance: "±3 points", holds: withinPoints(3), measured: gb(proc)},
		{name: "Figure 5: PowerGraph total (s)", paper: pg.total, tolerance: "±10 %", holds: withinRel(0.10), measured: pgb(total)},
		{name: "Figure 5: PowerGraph setup (%)", paper: pg.setup, tolerance: "±3 points", holds: withinPoints(3), measured: pgb(setup)},
		{name: "Figure 5: PowerGraph input/output (%)", paper: pg.io, tolerance: "±3 points", holds: withinPoints(3), measured: pgb(io)},
		{name: "Figure 5: PowerGraph processing (%)", paper: pg.proc, tolerance: "below", holds: below, measured: pgb(proc)},
		{name: "Figure 5: PowerGraph/Giraph total ratio", paper: paperRatio(), tolerance: "±10 %", holds: withinRel(0.10),
			measured: func(g, pg *platforms.Output) float64 { return pg.Breakdown.Total / g.Breakdown.Total }},
		{name: "Figure 6: Giraph cumulative CPU peak (cpu-s/s)", paper: paper.giraphPeak, tolerance: "±5 %", holds: withinRel(0.05), measured: gb(peak)},
		{name: "Figure 6: Giraph Startup CPU (% of the cluster's cores)", paper: 1, says: "setup is idle", tolerance: "below", holds: below,
			measured: gb(func(o *platforms.Output) float64 { return cpuShare(o, "Startup") })},
		{name: "Figure 6: Giraph Cleanup CPU (% of the cluster's cores)", paper: 1, says: "setup is idle", tolerance: "below", holds: below,
			measured: gb(func(o *platforms.Output) float64 { return cpuShare(o, "Cleanup") })},
		{name: "Figure 7: PowerGraph cumulative CPU peak (cpu-s/s)", paper: paper.powerGraphPeak, tolerance: "±5 %", holds: withinRel(0.05), measured: pgb(peak)},
		{name: "Figure 7: PowerGraph nodes busy during the sequential load", paper: 1, says: "only one node is busy while loading", tolerance: "exactly", holds: equal,
			measured: pgb(func(o *platforms.Output) float64 { return busyNodes(o.Job, "LoadGraph", "SequentialLoad") })},
		{name: "Figure 8: longest / mean per-superstep compute", paper: 2, says: "compute is uneven across supersteps", tolerance: "at least", holds: atLeast,
			measured: gb(func(o *platforms.Output) float64 {
				longest, sum := 0.0, 0.0
				steps := viz.SuperstepImbalance(o.Job)
				for _, im := range steps {
					longest, sum = max(longest, im.Max), sum+im.Max
				}
				return longest / (sum / float64(len(steps)))
			})},
		{name: "Figure 8: worst max/mean compute within a superstep of ≥ 0.1 s mean", paper: 1.5, says: "some workers wait at the barrier", tolerance: "at least", holds: atLeast,
			measured: gb(func(o *platforms.Output) float64 {
				worst := 0.0
				for _, im := range viz.SuperstepImbalance(o.Job) {
					if im.Mean >= 0.1 {
						worst = max(worst, im.Ratio)
					}
				}
				return worst
			})},
		{name: "Figure 8: longest compute superstep", paper: float64(paper.longestCompute), tolerance: "exactly", holds: equal,
			measured: gb(func(o *platforms.Output) float64 {
				longest, at := 0.0, -1
				for _, im := range viz.SuperstepImbalance(o.Job) {
					if im.Max > longest {
						longest, at = im.Max, im.Superstep
					}
				}
				return float64(at)
			}),
			deviation: "the stand-in's community-local edges (85 %) spread the BFS frontier over more supersteps, so its peak comes later"},
	}
}

// cpuShare is the mean CPU use during the root's child operation mission,
// as a percentage of the cluster's cores.
func cpuShare(o *platforms.Output, mission string) float64 {
	ops := o.Job.Root.ChildrenByMission(mission)
	if len(ops) != 1 || ops[0].Duration() <= 0 {
		return math.NaN()
	}
	cpu, err := strconv.ParseFloat(ops[0].Derived["CPUSeconds"], 64)
	if err != nil {
		return math.NaN()
	}
	cores := platforms.DAS5Config().Nodes * platforms.DAS5Config().CoresPerNode
	return 100 * cpu / ops[0].Duration() / float64(cores)
}

// busyNodes is the most nodes that used more than one core at one sample
// time inside the operation at path (below the root), over the samples
// that lie wholly within it.
func busyNodes(job *archive.Job, path ...string) float64 {
	ops := job.Find(append([]string{job.Root.Mission}, path...)...)
	if len(ops) != 1 {
		return math.NaN()
	}
	op := ops[0]
	busy := map[float64]int{}
	for _, s := range job.EnvSamples {
		if s.IsCPU() && s.Time-1 >= op.Start && s.Time <= op.End && s.Used > 1 {
			busy[s.Time]++
		}
	}
	most := 0
	for _, n := range busy {
		most = max(most, n)
	}
	return float64(most)
}

// TestPaperFidelity holds the reproduction to the paper's Figures 5-8 at
// seed 42, the committed run, and at seeds 1-5: the paper's findings
// must not depend on which stand-in graph was drawn.
func TestPaperFidelity(t *testing.T) {
	for _, seed := range []int64{42, 1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			r := &runner{seed: seed}
			g, err := r.run("Giraph")
			if err != nil {
				t.Fatal(err)
			}
			pg, err := r.run("PowerGraph")
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range paperClaims() {
				got := c.measured(g, pg)
				switch {
				case c.deviation != "":
					t.Logf("deviation: %s: measured %.4g, paper %.4g (%s)", c.name, got, c.paper, c.deviation)
				case c.holds(got, c.paper):
					t.Logf("%s: measured %.4g, paper %.4g", c.name, got, c.paper)
				case c.says != "":
					t.Errorf("%s: measured %.4g, want %s %.4g (paper: %s)", c.name, got, c.tolerance, c.paper, c.says)
				default:
					t.Errorf("%s: measured %.4g, paper %.4g (%s)", c.name, got, c.paper, c.tolerance)
				}
			}
		})
	}
}
