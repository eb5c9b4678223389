package archive_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/platforms"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSaveAllocs is Save's allocation gate. In steady state, saving the
// archive of the PowerGraph PageRank job that the serve-write workload
// submits (the service's default 2,000-vertex, 10,000-edge graph, 10
// iterations) allocates at most 1.5 times the bytes it writes;
// encoding/json's Encoder with SetIndent allocated about 5 times. The
// output must also equal that Encoder's bytes, and the log line gives
// both timings.
func TestSaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 2000, Edges: 10_000, Seed: 1, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := platforms.Run(platforms.Spec{
		Platform: "PowerGraph", Algorithm: "PageRank", Dataset: ds, JobID: "w1-000001",
		Source: datagen.PeripheralSource(ds.Graph), Iterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := archive.New()
	a.Add(out.Job)

	var got bytes.Buffer
	if err := a.Save(&got); err != nil {
		t.Fatal(err)
	}
	want, err := archive.ReferenceSave(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Save bytes differ from encoding/json (%d vs %d bytes)", got.Len(), len(want))
	}

	const runs = 20
	timed := func(save func() error) (allocated uint64, perRun time.Duration) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for range runs {
			if err := save(); err != nil {
				t.Fatal(err)
			}
		}
		perRun = time.Since(start) / runs
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, perRun
	}
	alloc, took := timed(func() error { return a.Save(io.Discard) })
	_, refTook := timed(func() error { _, err := archive.ReferenceSave(a); return err })
	ratio := float64(alloc) / float64(got.Len())
	t.Logf("Save: %d bytes out, %d B allocated per run (%.2fx), %v per run; encoding/json %v (%.1fx slower)",
		got.Len(), alloc, ratio, took, refTook, float64(refTook)/float64(took))
	if ratio > 1.5 {
		t.Fatalf("Save allocates %.2fx its output (%d B for %d B), want <= 1.5x", ratio, alloc, got.Len())
	}
}
