package gas

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
)

// traceFingerprint renders every trace record into one string so two
// runs can be compared byte for byte.
func traceFingerprint(log []trace.Record) string {
	var sb strings.Builder
	for _, r := range log {
		fmt.Fprintf(&sb, "%.9f|%s|%s|%s|%s|%s|%s|%s|%s\n",
			r.Time, r.Job, r.Op, r.Parent, r.Actor, r.Mission, r.Event, r.Key, r.Value)
	}
	return sb.String()
}

func poolSizes() []int {
	sizes := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sizes = append(sizes, n)
	}
	return sizes
}

// rank is a PageRank-style program: every vertex stays active for a fixed
// number of rounds, so the active list spans the whole graph and the
// gather/apply/scatter phases all see large shards.
type rank struct{ rounds int }

func (rank) Init(v graph.VertexID, _ *graph.Graph) (float64, bool) { return 1, true }
func (rank) GatherDir() Direction                                  { return In }
func (rank) Gather(_ int, _, _ graph.VertexID, otherValue float64) float64 {
	return otherValue * 0.85
}
func (rank) Sum(a, b float64) float64 { return a + b }
func (r rank) Apply(it int, _ graph.VertexID, old, acc float64, hasAcc bool) float64 {
	if it >= r.rounds {
		return old
	}
	if !hasAcc {
		return 0.15
	}
	return 0.15 + acc
}
func (rank) ScatterDir() Direction { return Out }
func (r rank) Scatter(it int, _, _ graph.VertexID, _, _ float64) bool {
	return it < r.rounds-1
}

// TestGASParallelMatchesSerialExactly runs the same job at every host
// pool size and requires the serial result and full trace to reproduce
// exactly.
func TestGASParallelMatchesSerialExactly(t *testing.T) {
	ds := testDataset(t)
	programs := []struct {
		name string
		prog Program
	}{
		{"bfs", bfs{source: 0}},
		{"rank", rank{rounds: 4}},
	}
	for _, pc := range programs {
		t.Run(pc.name, func(t *testing.T) {
			var baseRes *Result
			var baseTrace string
			for _, par := range poolSizes() {
				env := newTestEnv(t, ds, 1)
				cfg := testJobConfig(4)
				cfg.HostParallelism = par
				res := runGASJob(t, env, cfg, pc.prog, ds)
				tr := traceFingerprint(*env.log)
				if baseRes == nil {
					baseRes, baseTrace = res, tr
					continue
				}
				if !reflect.DeepEqual(res, baseRes) {
					t.Fatalf("parallelism=%d: result differs from serial:\n got %+v\nwant %+v", par, res, baseRes)
				}
				if tr != baseTrace {
					t.Fatalf("parallelism=%d: trace differs from serial (lengths %d vs %d)",
						par, len(tr), len(baseTrace))
				}
			}
		})
	}
}
