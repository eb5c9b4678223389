package regression

import (
	"math"
	"strings"
	"testing"

	"repro/internal/archive"
)

// mkJob builds a job with root [0,total] and leaf children with the given
// (mission, actor, duration) laid out sequentially.
func mkJob(id string, leaves ...[3]any) *archive.Job {
	root := &archive.Operation{ID: "r", Mission: "Job", Start: 0}
	t := 0.0
	for i, l := range leaves {
		d := l[2].(float64)
		root.Children = append(root.Children, &archive.Operation{
			ID:      string(rune('a' + i)),
			Mission: l[0].(string),
			Actor:   l[1].(string),
			Start:   t,
			End:     t + d,
		})
		t += d
	}
	root.End = t
	return &archive.Job{ID: id, Root: root}
}

func TestNoChangePasses(t *testing.T) {
	base := mkJob("j", [3]any{"Load", "W-0", 5.0}, [3]any{"Process", "W-0", 3.0})
	cur := mkJob("j", [3]any{"Load", "W-0", 5.0}, [3]any{"Process", "W-0", 3.0})
	r, err := Compare(base, cur, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass() || len(r.Findings) != 0 {
		t.Fatalf("expected clean pass: %+v", r.Findings)
	}
	if r.MakespanChange != 0 {
		t.Fatalf("makespan change = %v", r.MakespanChange)
	}
}

func TestRegressionFlagged(t *testing.T) {
	base := mkJob("j", [3]any{"Load", "W-0", 5.0}, [3]any{"Process", "W-0", 3.0})
	cur := mkJob("j", [3]any{"Load", "W-0", 8.0}, [3]any{"Process", "W-0", 3.0})
	r, err := Compare(base, cur, Thresholds{RelativeChange: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass() {
		t.Fatal("expected failure")
	}
	if len(r.Findings) != 1 {
		t.Fatalf("findings = %+v", r.Findings)
	}
	f := r.Findings[0]
	if f.Verdict != verdictRegression || f.Mission != "Load" {
		t.Fatalf("finding = %+v", f)
	}
	if math.Abs(f.Change-0.6) > 1e-9 {
		t.Fatalf("change = %v, want 0.6", f.Change)
	}
}

func TestImprovementDoesNotFail(t *testing.T) {
	base := mkJob("j", [3]any{"Load", "W-0", 8.0})
	cur := mkJob("j", [3]any{"Load", "W-0", 4.0})
	r, err := Compare(base, cur, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass() {
		t.Fatal("improvements must not fail the run")
	}
	if len(r.Findings) != 1 || r.Findings[0].Verdict != verdictImprovement {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestAddedAndRemoved(t *testing.T) {
	base := mkJob("j", [3]any{"Load", "W-0", 5.0}, [3]any{"Shuffle", "W-0", 2.0})
	cur := mkJob("j", [3]any{"Load", "W-0", 5.0}, [3]any{"Spill", "W-0", 2.0})
	r, err := Compare(base, cur, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[Verdict]int{}
	for _, f := range r.Findings {
		verdicts[f.Verdict]++
	}
	if verdicts[verdictAdded] != 1 || verdicts[verdictRemoved] != 1 {
		t.Fatalf("verdicts = %v", verdicts)
	}
	if !r.Pass() {
		t.Fatal("structural changes alone must not fail the run")
	}
}

func TestNoiseFloorSuppressesTinyOps(t *testing.T) {
	base := mkJob("j", [3]any{"Sync", "W-0", 0.01})
	cur := mkJob("j", [3]any{"Sync", "W-0", 0.03}) // 3x but tiny
	r, err := Compare(base, cur, Thresholds{MinSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Findings) != 0 {
		t.Fatalf("tiny ops flagged: %+v", r.Findings)
	}
}

func TestRepeatedOperationsMatchedByOccurrence(t *testing.T) {
	base := mkJob("j",
		[3]any{"Superstep", "M", 1.0},
		[3]any{"Superstep", "M", 2.0},
		[3]any{"Superstep", "M", 3.0},
	)
	cur := mkJob("j",
		[3]any{"Superstep", "M", 1.0},
		[3]any{"Superstep", "M", 5.0}, // only the second regressed
		[3]any{"Superstep", "M", 3.0},
	)
	r, err := Compare(base, cur, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Findings) != 1 {
		t.Fatalf("findings = %+v", r.Findings)
	}
	if !strings.Contains(r.Findings[0].Key, "#1") {
		t.Fatalf("wrong occurrence matched: %s", r.Findings[0].Key)
	}
}

func TestFindingsOrderedByImpact(t *testing.T) {
	base := mkJob("j", [3]any{"A", "x", 1.0}, [3]any{"B", "x", 10.0})
	cur := mkJob("j", [3]any{"A", "x", 2.0}, [3]any{"B", "x", 20.0})
	r, err := Compare(base, cur, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Findings) != 2 || r.Findings[0].Mission != "B" {
		t.Fatalf("findings = %+v", r.Findings)
	}
}

func TestRenderShowsVerdicts(t *testing.T) {
	base := mkJob("j", [3]any{"Load", "W-0", 5.0})
	cur := mkJob("j", [3]any{"Load", "W-0", 8.0})
	r, err := Compare(base, cur, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"Regression report", "regression", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	clean, _ := Compare(base, base, Thresholds{})
	if !strings.Contains(clean.Render(), "no operations changed") {
		t.Fatal("clean render wrong")
	}
}

func TestCompareErrors(t *testing.T) {
	good := mkJob("j", [3]any{"Load", "W-0", 5.0})
	if _, err := Compare(&archive.Job{ID: "x"}, good, Thresholds{}); err == nil {
		t.Fatal("expected error for empty baseline")
	}
	if _, err := Compare(good, &archive.Job{ID: "x"}, Thresholds{}); err == nil {
		t.Fatal("expected error for empty current")
	}
}
