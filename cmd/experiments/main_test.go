package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it printed. The experiment steps write to
// os.Stdout directly, as the paper-reproduction transcript.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	var buf strings.Builder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(&buf, r)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	wg.Wait()
	if runErr != nil {
		t.Fatalf("step failed: %v", runErr)
	}
	return buf.String()
}

// TestEveryExperimentFlagSmoke runs each -exp value at a reduced
// work scale and asserts it produces its figure's distinctive output.
func TestEveryExperimentFlagSmoke(t *testing.T) {
	markers := map[string]string{
		"table1": "Giraph",            // the diversity table lists the platforms
		"fig3":   "GraphProcessing",   // the domain model render
		"fig4":   "Granula",           // the Giraph model render header
		"fig5":   "measured: total",   // paper-vs-measured breakdown lines
		"fig6":   "measured peak",     // CPU utilization summary
		"fig7":   "measured peak",     //
		"fig8":   "compute superstep", // imbalance summary
	}
	steps, order := experimentSteps(&runner{})
	if len(steps) != len(order) {
		t.Fatalf("steps/order mismatch: %d vs %d", len(steps), len(order))
	}
	for _, name := range order {
		name := name
		t.Run(name, func(t *testing.T) {
			// A fresh runner per flag, as `-exp <name>` gets, at a
			// work scale far below even -quick.
			r := &runner{seed: 42, quick: true, vertices: 1500, edges: 8000}
			steps, _ := experimentSteps(r)
			out := captureStdout(t, steps[name])
			if len(out) == 0 {
				t.Fatalf("-exp %s produced no output", name)
			}
			if marker := markers[name]; !strings.Contains(out, marker) {
				t.Fatalf("-exp %s output lacks %q:\n%s", name, marker, out)
			}
		})
	}
}

// firstDiff names the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestPaperGolden is the committed result behind every measured Figure
// 5–8 number in EXPERIMENTS.md: the full-scale run (seed 42, every step, in
// order, as `-exp all -out` does) must reproduce out/ byte for byte —
// the transcript and each figure, report and archive — and out/ holds
// nothing else. A cost-model or
// kernel change that moves a number fails here; regenerate with
//
//	go run ./cmd/experiments -out out > out/experiments_output.txt
//
// and let the reviewer read the diff of out/.
func TestPaperGolden(t *testing.T) {
	const golden = "../../out"
	dir := t.TempDir()
	r := &runner{seed: 42, outDir: dir}
	steps, order := experimentSteps(r)
	stdout := captureStdout(t, func() error {
		for _, name := range order {
			if err := steps[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return r.writeOutputs()
	})
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 8 {
		t.Errorf("-out wrote %d files, want the 8 committed under out/", len(written))
	}
	got := map[string]string{"experiments_output.txt": stdout}
	for _, e := range written {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = string(b)
	}
	for name, content := range got {
		want, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Errorf("no committed result for %s: %v", name, err)
			continue
		}
		if content != string(want) {
			t.Errorf("%s differs from out/%s at %s", name, name, firstDiff(content, string(want)))
		}
	}
	committed, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range committed {
		if _, ok := got[e.Name()]; !ok {
			t.Errorf("out/%s is committed but the run does not produce it, so nothing checks it", e.Name())
		}
	}
}
