package pregel

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// traceFingerprint renders every trace record — timestamps, ops, actors,
// missions, info pairs — into one string. Two runs are equivalent only if
// their fingerprints match byte for byte.
func traceFingerprint(log []trace.Record) string {
	var sb strings.Builder
	for _, r := range log {
		fmt.Fprintf(&sb, "%.9f|%s|%s|%s|%s|%s|%s|%s|%s\n",
			r.Time, r.Job, r.Op, r.Parent, r.Actor, r.Mission, r.Event, r.Key, r.Value)
	}
	return sb.String()
}

// poolSizes is the table from the issue: serial, two, four, and the
// host's actual core count.
func poolSizes() []int {
	sizes := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sizes = append(sizes, n)
	}
	return sizes
}

// fpAgg aggregates a vertex-dependent float each superstep. Floating-point
// addition is not associative, so the aggregate detects any change in the
// order worker contributions are reduced.
type fpAgg struct{ rounds int }

func (f fpAgg) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() < f.rounds {
		ctx.Aggregate("mass", 1.0/(float64(ctx.ID())+1.7))
		ctx.SetValue(ctx.AggregatedValue("mass"))
		return
	}
	ctx.SetValue(ctx.AggregatedValue("mass"))
	ctx.VoteToHalt()
}

// TestParallelMatchesSerialExactly runs the same job at every pool size
// and requires the serial run's result *and* full trace to be reproduced
// exactly — values, counters, simulated timestamps, everything.
func TestParallelMatchesSerialExactly(t *testing.T) {
	ds := testDataset(t)
	programs := []struct {
		name string
		prog Program
	}{
		{"bfs", bfs{source: 0}},
		{"fp-aggregate", fpAgg{rounds: 4}},
	}
	for _, pc := range programs {
		t.Run(pc.name, func(t *testing.T) {
			var baseRes *Result
			var baseTrace string
			for _, par := range poolSizes() {
				env := newTestEnv(t, ds, 1)
				cfg := testJobConfig(4)
				cfg.HostParallelism = par
				if pc.name == "fp-aggregate" {
					cfg.Combiner = nil
				}
				res := runJob(t, env, cfg, pc.prog, ds)
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

// TestParallelZeroDefaultsToNumCPU checks the config contract: 0 means
// "use every host core", and it still matches the serial run.
func TestParallelZeroDefaultsToNumCPU(t *testing.T) {
	ds := testDataset(t)

	envSerial := newTestEnv(t, ds, 1)
	cfgSerial := testJobConfig(4)
	cfgSerial.HostParallelism = 1
	resSerial := runJob(t, envSerial, cfgSerial, bfs{source: 0}, ds)

	envAuto := newTestEnv(t, ds, 1)
	cfgAuto := testJobConfig(4)
	cfgAuto.HostParallelism = 0
	resAuto := runJob(t, envAuto, cfgAuto, bfs{source: 0}, ds)

	if !reflect.DeepEqual(resSerial, resAuto) {
		t.Fatalf("HostParallelism=0 result differs from serial:\n got %+v\nwant %+v", resAuto, resSerial)
	}
	if a, b := traceFingerprint(*envSerial.log), traceFingerprint(*envAuto.log); a != b {
		t.Fatal("HostParallelism=0 trace differs from serial")
	}
}
