package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

func loadResults(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// A file written before a metric was demoted is read as if it had
	// been written after, so that it stays comparable.
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			if demoted[r.Workload+"/"+name] {
				delete(r.Metrics, name)
				r.Metrics[demotedPrefix+name] = m
			}
		}
	}
	return &f, nil
}

// series groups a result file's untraced runs: workload -> metric ->
// one value per run.
func (f *ResultFile) series() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// failShare is ops_failed / ops_attempted over a workload's runs.
func (f *ResultFile) failShare(workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verdict judges one end-to-end metric of one workload. worse is the
// change of the median in the bad direction as a share of the base
// median. A metric whose run-to-run spread exceeds its bound cannot
// resolve a change of the bound's size: it is unresolved unless the two
// sets of runs do not overlap at all.
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma
	if def.better == "higher" {
		worse = -worse
	}
	wide := spread(a) > def.bound || spread(b) > def.bound
	minA, maxA := percentile(a, 0), percentile(a, 100)
	minB, maxB := percentile(b, 0), percentile(b, 100)
	overlap := minA <= maxB && minB <= maxA
	switch {
	case wide && overlap && (len(a) > 1 || len(b) > 1):
		return "unresolved", worse
	case worse > def.bound:
		return "regressed", worse
	case worse < -def.bound:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the change with its base, the bound, and a verdict. It
// returns 1 when anything regressed or a workload's failure share rose.
func compareFiles(pathA, pathB string) int {
	var files [2]*ResultFile
	for i, path := range []string{pathA, pathB} {
		f, err := loadResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1])
}

func compareResults(fa, fb *ResultFile) int {
	sa, sb := fa.series(), fb.series()
	bad := false
	fmt.Printf("%-18s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range sortedKeys(sa) {
		for _, name := range sortedKeys(sa[wl]) {
			def, _ := defOf(name)
			b, ok := sb[wl][name]
			if !ok {
				continue
			}
			a := sa[wl][name]
			if strings.HasPrefix(name, demotedPrefix) {
				fmt.Printf("%-18s %-28s %14.4f %14.4f %+8.1f%% %7s  no verdict: demoted, it does not repeat within a bound (%d vs %d runs)\n",
					wl, name, median(a), median(b), 100*ratio(median(b)-median(a), median(a)), "-", len(a), len(b))
				continue
			}
			v, worse := verdict(def, a, b)
			sign := worse
			if def.better == "higher" {
				sign = -worse
			}
			fmt.Printf("%-18s %-28s %14.4f %14.4f %+8.1f%% %6.0f%%  %s (base %.4f %s, %d vs %d runs)\n",
				wl, name, median(a), median(b), 100*sign, 100*def.bound, v, median(a), def.unit, len(a), len(b))
			bad = bad || v == "regressed"
		}
		if fb.failShare(wl) > fa.failShare(wl) {
			fmt.Printf("%-18s ops_failed/ops_attempted rose from %.4f to %.4f\n", wl, fa.failShare(wl), fb.failShare(wl))
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

// printRepeats summarises -repeat N runs of one workload.
func printRepeats(runs []*Result) {
	f := ResultFile{Runs: runs}
	wl := runs[0].Workload
	byMetric := f.series()[wl]
	if runs[0].Trace {
		byMetric = map[string][]float64{}
		for _, r := range runs {
			for name, m := range r.Metrics {
				byMetric[name] = append(byMetric[name], m.Value)
			}
		}
	}
	fmt.Printf("%s over %d runs: median [first quartile, third quartile] spread\n", wl, len(runs))
	for _, name := range sortedKeys(byMetric) {
		q1, q2, q3 := quartiles(byMetric[name])
		def, _ := defOf(name)
		fmt.Printf("  %-34s %14.4f [%.4f, %.4f] %5.1f%% %s\n", name, q2, q1, q3, 100*spread(byMetric[name]), def.unit)
	}
}

// spreadRow is one line of results/noise.json.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
}

// printSpread prints the run-to-run spread of every end-to-end metric
// in a result file: the noise calibration the bounds are set from.
func printSpread(path string) int {
	f, err := loadResults(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var rows []spreadRow
	s := f.series()
	for _, wl := range sortedKeys(s) {
		for _, name := range sortedKeys(s[wl]) {
			def, _ := defOf(name)
			q1, q2, q3 := quartiles(s[wl][name])
			rows = append(rows, spreadRow{wl, name, def.unit, len(s[wl][name]), q2, q1, q3, spread(s[wl][name]), def.bound})
		}
	}
	data, _ := json.MarshalIndent(struct {
		Host Host        `json:"host"`
		Rows []spreadRow `json:"rows"`
	}{f.Host, rows}, "", "  ")
	fmt.Println(string(data))
	return 0
}

// manifestJSON renders BENCHMARK.json from the definitions in this
// package, so the file and the program cannot drift apart.
func manifestJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, name := range denseNames(true) {
		d := metricDefs[name]
		m.EndToEnd = append(m.EndToEnd, e2e{name, d.unit, d.better, d.bound})
	}
	for _, name := range denseNames(false) {
		d := metricDefs[name]
		m.PerLayer = append(m.PerLayer, layer{name, d.unit, d.better})
	}
	data, _ := json.MarshalIndent(m, "", "  ")
	return string(data)
}
