package archive

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// checkEnvColumns fails unless the record of j re-encodes to the same
// bytes with its samples replaced by their columns' Samples. It
// compares bytes, not values: reflect.DeepEqual calls 0 and -0 equal,
// AppendRecord does not.
func checkEnvColumns(t *testing.T, j *Job) {
	t.Helper()
	summary := []byte(`{}`)
	want, err := AppendRecord(nil, summary, j, 1)
	if err != nil {
		return
	}
	cols := NewEnvColumns(j.EnvSamples)
	rebuilt := *j
	rebuilt.EnvSamples = cols.Samples()
	got, err := AppendRecord(nil, summary, &rebuilt, 1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("samples rebuilt from columns re-encode differently (%v)\n got: %q\nwant: %q", err, got, want)
	}
}

// paperArchive loads out/archive.json, the paper's two jobs.
func paperArchive(t *testing.T) *Archive {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "out", "archive.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEnvColumnsRoundTrip holds EnvColumns to the samples it was built
// from or appended, byte for byte, on the cases a naive layout gets wrong: a -0 time
// after a 0 (run-length coding by == merges them), unsorted and
// repeated times, the empty and "cpu" kinds (distinct series that
// encode differently), nil and empty slices, and more series than a
// 16-bit index holds.
func TestEnvColumnsRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	manyNodes := func(n int) []EnvSample {
		s := make([]EnvSample, n)
		for i := range s {
			s[i] = EnvSample{Time: float64(i / 7), Node: "n" + strconv.Itoa(i), Kind: []string{"", "cpu", "nic"}[i%3], Used: float64(i)}
		}
		return s
	}
	cases := map[string][]EnvSample{
		"nil":   nil,
		"empty": {},
		"negative zero": {
			{Time: 0, Node: "n", Kind: "cpu", Used: 0}, {Time: negZero, Node: "n", Kind: "cpu", Used: negZero},
			{Time: negZero, Node: "m", Used: negZero}, {Time: 0, Node: "m", Used: 1},
		},
		"unsorted and repeated times": {
			{Time: 3, Node: "a", Used: 1}, {Time: 3, Node: "b", Used: 2}, {Time: 1, Node: "a", Used: 3},
			{Time: 1, Node: "a", Used: 3}, {Time: 1, Node: "b", Used: 0.5}, {Time: 2, Node: "a"},
			{Time: 3, Node: "a", Used: 1}, {Time: 0.5, Node: "c", Kind: "disk", Used: 7},
		},
		"empty and cpu kinds": {
			{Time: 1, Node: "n", Used: 1}, {Time: 1, Node: "n", Kind: "cpu", Used: 2}, {Time: 2, Node: "n", Used: 3},
			{Time: 2, Node: "", Kind: "cpu"}, {Time: 2, Node: "", Kind: ""},
		},
		"65536 series":  manyNodes(1 << 16),
		"70,000 series": manyNodes(70_000),
	}
	for name, samples := range cases {
		t.Run(name, func(t *testing.T) {
			cols := NewEnvColumns(samples)
			if got := cols.Samples(); len(got) != len(samples) || (got == nil) != (len(samples) == 0) {
				t.Fatalf("Samples returned %d samples (nil %t) for %d", len(got), got == nil, len(samples))
			}
			if wide := len(samples) > 1<<16; (cols.idx32 != nil) != wide {
				t.Fatalf("%d series: 32-bit index %t, want %t", len(cols.series), cols.idx32 != nil, wide)
			}
			checkEnvColumns(t, &Job{ID: "j", Platform: "P", EnvSamples: samples})

			// Appended one by one, as a live job's are, the columns
			// hold the same samples and widen the index at the same
			// series.
			var grown EnvColumns
			for _, s := range samples {
				grown.Append(s)
			}
			if (grown.idx32 != nil) != (cols.idx32 != nil) {
				t.Fatalf("appended columns: 32-bit index %t, built %t", grown.idx32 != nil, cols.idx32 != nil)
			}
			checkEnvColumns(t, &Job{ID: "j", Platform: "P", EnvSamples: grown.Samples()})
			want, _ := AppendRecord(nil, []byte(`{}`), &Job{ID: "j", Platform: "P", EnvSamples: samples}, 1)
			got, _ := AppendRecord(nil, []byte(`{}`), &Job{ID: "j", Platform: "P", EnvSamples: grown.Samples()}, 1)
			if !bytes.Equal(got, want) {
				t.Fatal("appended columns rebuild different samples")
			}
		})
	}

	for _, j := range paperArchive(t).Jobs {
		if len(j.EnvSamples) == 0 {
			t.Fatalf("paper job %s has no samples", j.ID)
		}
		checkEnvColumns(t, j)
	}
}

// TestEnvSamplesAllocs is the allocation gate of EnvColumns.Samples:
// rebuilding a real job's samples allocates the one slice it returns.
func TestEnvSamplesAllocs(t *testing.T) {
	jobs := paperArchive(t).Jobs
	cols := NewEnvColumns(jobs[len(jobs)-1].EnvSamples)
	var samples []EnvSample
	if n := testing.AllocsPerRun(50, func() { samples = cols.Samples() }); n != 1 {
		t.Fatalf("Samples allocates %v times per call, want 1", n)
	}
	if len(samples) == 0 {
		t.Fatal("the paper job has no samples")
	}
}
