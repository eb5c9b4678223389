package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at 1/50 scale
// and checks that each emits exactly the metrics declared for it.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			mode := map[bool]string{false: "untraced", true: "traced"}[trace]
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				out := t.TempDir()
				t.Setenv("TMPDIR", t.TempDir())
				res, err := runWorkload(w, 7, runSeconds, 1.0/50, trace, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("correctness checks failed: %v", res.Problems)
				}
				if res.Attempted < 1 {
					t.Fatalf("ops_attempted = %d", res.Attempted)
				}
				if res.Failed != 0 {
					// Only the known /watch flake may fail ops, and it
					// must be attributed.
					missing := res.Metrics["stream.seal_missing_total"].Value
					if w.name != "stream-live" || (trace && float64(res.Failed) != missing) {
						t.Fatalf("ops_failed = %d: %v", res.Failed, res.Problems)
					}
				}
				want := w.wants(trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, name := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case !nameRE.MatchString(name):
						t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
					case m.Unit == "" || m.Unit != unitOf(name):
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unitOf(name))
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				var line struct {
					Correct   *bool             `json:"correct"`
					Attempted *int              `json:"attempted"`
					Failed    *int              `json:"failed"`
					Metrics   map[string]Metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
					t.Fatal(err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(denseNames(!trace)) {
					t.Errorf("driver line is not the contract's object: %s", driverLine(res))
				}
				if trace {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
						t.Errorf("traced run wrote no trace file: %v", err)
					}
				}
			})
		}
	}
}

func unitOf(name string) string {
	def, _ := defOf(name)
	return def.unit
}

// TestBaselineAgainstItself: the committed baseline holds five runs of
// every workload; compared with itself every bounded metric must read
// unchanged. A metric whose five runs spread wider than its bound would
// read unresolved: the calibration has to demote it (defs.go).
func TestBaselineAgainstItself(t *testing.T) {
	f, err := loadResults(filepath.Join("results", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	series := f.series()
	for _, w := range workloads {
		for _, name := range w.wants(false) {
			values := series[w.name][name]
			if len(values) < 5 {
				t.Errorf("%s: baseline has %d runs of %s, want 5", w.name, len(values), name)
				continue
			}
			if def, _ := defOf(name); def.endToEnd() {
				if v, _ := verdict(def, values, values); v != "unchanged" {
					t.Errorf("%s %s against itself: %s (spread %.1f %%, bound %.0f %%)", w.name, name, v, 100*spread(values), 100*def.bound)
				}
			}
		}
	}
	if code := compareResults(f, f); code != 0 {
		t.Errorf("compare of the baseline with itself exits %d", code)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{unit: "ms", better: "lower", bound: 0.10}
	higher := metricDef{unit: "1/s", better: "higher", bound: 0.10}
	cases := []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{100, 102, 98}, "unchanged"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "regressed"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "improved"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "improved"},
		// Spread wider than the bound and the runs overlap: no verdict.
		{lower, []float64{100, 140, 60, 120, 80}, []float64{115, 150, 70, 130, 90}, "unresolved"},
		// Just as noisy, but every run of B is above every run of A.
		{lower, []float64{100, 140, 60, 120, 80}, []float64{200, 280, 160, 240, 170}, "regressed"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestSelfTime checks the span-tree arithmetic on a hand-built trace.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "a.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b.child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b.child", Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 1, Name: "c.late", Start: 90, End: 120}, // leaves the parent
		{ID: 5, Parent: 2, Name: "d.leaf", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if err := checkNesting(spans); err == nil || !strings.Contains(err.Error(), "c.late") {
		t.Errorf("checkNesting did not report the child that leaves its parent: %v", err)
	}
	if err := checkNesting(spans[:3]); err != nil {
		t.Errorf("checkNesting on a well-nested trace: %v", err)
	}

	// Nest lays replayed children inside the parent and clips them.
	tr := newTracer()
	tr.spans = []Span{{ID: 1, Name: "p.run", Start: 0, End: 100}}
	tr.Nest(1, "q.first", 60)
	tr.Nest(1, "q.second", 70) // only 40 of the parent is left
	got := tr.Spans()
	if got[1].Start != 0 || got[1].End != 60 || got[2].Start != 60 || got[2].End != 100 {
		t.Errorf("nested spans = %+v", got[1:])
	}
	if self := selfTimes(got); self[1] != 0 {
		t.Errorf("self time of a fully covered parent = %d", self[1])
	}
	if err := checkNesting(got); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestManifest keeps BENCHMARK.json and the definitions in this package
// from drifting apart.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != manifestJSON() {
		t.Error("BENCHMARK.json is not what `bench -manifest` prints; regenerate it")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
		for _, name := range append(append([]string(nil), w.e2e...), w.layers...) {
			if def, ok := metricDefs[name]; !ok || def.dense {
				t.Errorf("%s declares %s, which is not a metric of its own", w.name, name)
			}
		}
	}
	for pair := range demoted {
		wl, name, _ := strings.Cut(pair, "/")
		if w := findWorkload(wl); w == nil || !slices.Contains(w.e2e, name) {
			t.Errorf("demoted pair %s names no end-to-end metric of a workload", pair)
		}
	}
}
