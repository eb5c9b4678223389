package query

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/archive"
)

// paperArchive loads the committed out/archive.json and returns it with
// its raw bytes.
func paperArchive(t testing.TB) (*archive.Archive, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "out", "archive.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := archive.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return a, raw
}

// TestSegmentBytesPinned pins the segment encoding of both jobs in
// out/archive.json: the frame's in-memory columns (paths, infos,
// derived) are not part of the file format, so adding them must not
// move a byte.
func TestSegmentBytesPinned(t *testing.T) {
	want := map[string]string{
		"giraph-bfs-dg1000":     "6bed23445a44fc64001e8594fa0779842cabaf8ae826a187a9e37d566d9c7373",
		"powergraph-bfs-dg1000": "8458acd1cb017d55449dc51249a323e43d41b9387c60adb4a08360ed00064300",
	}
	a, _ := paperArchive(t)
	if len(a.Jobs) != len(want) {
		t.Fatalf("out/archive.json holds %d jobs, the pins cover %d", len(a.Jobs), len(want))
	}
	for _, job := range a.Jobs {
		seg, err := EncodeSegment(BuildColumns(job).Frame(JobMeta{ID: job.ID, Platform: job.Platform}), 1)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(seg)
		if got := hex.EncodeToString(sum[:]); got != want[job.ID] {
			t.Errorf("job %s: segment sha256 %s, want %s", job.ID, got, want[job.ID])
		}
	}
}

// saveArchive renders a as archive.Save does.
func saveArchive(t testing.TB, a *archive.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkFrameTree is the frame ⇄ tree round trip: every job of a, its
// tree rebuilt from BuildColumns, saves to exactly the bytes of a.
func checkFrameTree(t testing.TB, a *archive.Archive) {
	t.Helper()
	rebuilt := &archive.Archive{Version: a.Version, Jobs: slices.Clone(a.Jobs)}
	for i, j := range a.Jobs {
		rebuilt.Jobs[i] = &archive.Job{ID: j.ID, Platform: j.Platform, Root: BuildColumns(j).f.Tree(), EnvSamples: j.EnvSamples}
		archive.New().Add(rebuilt.Jobs[i])
	}
	if want, got := saveArchive(t, a), saveArchive(t, rebuilt); !bytes.Equal(want, got) {
		t.Fatalf("rebuilt tree saves differently:\n got %s\nwant %s", got, want)
	}
}

// FuzzFrameTree: for every archive archive.Load accepts, Save of the
// trees rebuilt from BuildColumns equals Save of the loaded trees, byte
// for byte. The edge cases seeding it are checked as built, too, since
// Load refuses one of them (a job without a root).
func FuzzFrameTree(f *testing.F) {
	_, paper := paperArchive(f)
	f.Add(paper)
	op := func(id string, start, end float64) *archive.Operation {
		return &archive.Operation{ID: id, Actor: "a", Mission: "M", Start: start, End: end}
	}
	single := op("r", 0, 1)
	emptyMaps := op("r", 0, 4)
	emptyMaps.Infos, emptyMaps.Children = map[string]string{}, []*archive.Operation{op("c", 1, 2)}
	emptyMaps.Children[0].Derived = map[string]string{}
	ties := op("r", 0, 9)
	ties.Children = []*archive.Operation{op("b", 1, 2), op("a", 1, 3), op("c", 0, 1)}
	ties.Children[1].Children = []*archive.Operation{op("a2", 2, 3), op("a1", 2, 2.5)}
	escapes := op("r", 0, 1)
	escapes.Mission = "Jöb <&>"
	escapes.Infos = map[string]string{"<k>": "a & b", "ключ": "värde 日本"}
	escapes.Derived = map[string]string{"Share&": "<50%>"}
	for _, job := range []*archive.Job{
		{ID: "nil-root", Platform: "P"},
		{ID: "single", Platform: "P", Root: single},
		{ID: "empty-maps", Platform: "P", Root: emptyMaps},
		{ID: "equal-starts", Platform: "P", Root: ties},
		{ID: "escapes", Platform: "P<>", Root: escapes,
			EnvSamples: []archive.EnvSample{{Time: 1, Node: "n&0", Used: 0.5}}},
	} {
		a := archive.New()
		a.Jobs = append(a.Jobs, job)
		f.Add(saveArchive(f, a)) // siblings as given, for Load to sort
		archive.New().Add(job)
		checkFrameTree(f, a)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := archive.Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		checkFrameTree(t, a)
	})
}
