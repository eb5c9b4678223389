package main

// paperBreakdown is one platform's Figure 5 bar as the paper reports it:
// the total in seconds and the domain-level shares in percent.
type paperBreakdown struct {
	total, setup, io, proc float64
	// procBelow marks proc as an upper bound ("< 3.1 %").
	procBelow bool
}

// paper holds every number the paper reports for BFS on dg1000 on 8 DAS5
// nodes (Figures 5-8). The "paper:" lines of the transcript print it and
// TestPaperFidelity holds the reproduction to it; no other Go file spells
// these numbers.
var paper = struct {
	giraph, powerGraph paperBreakdown
	// giraphPeak and powerGraphPeak are the cumulative CPU peaks over the
	// 8 nodes, in cpu-seconds per second (Figures 6 and 7).
	giraphPeak, powerGraphPeak float64
	// longestCompute is the superstep Figure 8 highlights as the
	// longest compute phase.
	longestCompute int
}{
	giraph:         paperBreakdown{total: 81.59, setup: 30.9, io: 43.3, proc: 25.8},
	powerGraph:     paperBreakdown{total: 400.38, io: 94.8, proc: 3.1, procBelow: true},
	giraphPeak:     190.30,
	powerGraphPeak: 46.93,
	longestCompute: 4,
}

// paperRatio is the paper's PowerGraph/Giraph total-runtime ratio.
func paperRatio() float64 { return paper.powerGraph.total / paper.giraph.total }
