package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomTree builds a random valid operation tree rooted in [start, end].
func randomTree(rng *rand.Rand, id *int, start, end float64, depth int) *Operation {
	*id++
	op := &Operation{
		ID:      fmt.Sprintf("op-%d", *id),
		Mission: fmt.Sprintf("M%d", rng.Intn(6)),
		Actor:   fmt.Sprintf("A%d", rng.Intn(4)),
		Start:   start,
		End:     end,
	}
	if rng.Intn(3) == 0 {
		op.Infos = map[string]string{"k": fmt.Sprint(rng.Intn(100))}
	}
	if depth >= 4 || end-start < 0.01 {
		return op
	}
	// Children: partition a sub-interval of the parent.
	n := rng.Intn(4)
	t := start
	for i := 0; i < n; i++ {
		remaining := end - t
		if remaining <= 0.01 {
			break
		}
		childLen := remaining * (0.1 + 0.5*rng.Float64())
		child := randomTree(rng, id, t, t+childLen, depth+1)
		op.Children = append(op.Children, child)
		t += childLen
	}
	return op
}

// TestArchiveRoundTripProperty: any valid job survives save/load with its
// structure, intervals, and infos intact.
func TestArchiveRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := 0
		job := &Job{
			ID:       fmt.Sprintf("job-%d", seed),
			Platform: "X",
			Root:     randomTree(rng, &id, 0, 10+rng.Float64()*100, 0),
		}
		a := New()
		a.Add(job)
		if err := job.Validate(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			return false
		}
		loaded, err := Load(&buf)
		if err != nil {
			return false
		}
		got := loaded.Job(job.ID)
		if got == nil {
			return false
		}
		// Compare structure recursively.
		var same func(a, b *Operation) bool
		same = func(a, b *Operation) bool {
			if a.ID != b.ID || a.Mission != b.Mission || a.Actor != b.Actor ||
				a.Start != b.Start || a.End != b.End || len(a.Children) != len(b.Children) {
				return false
			}
			if !reflect.DeepEqual(a.Infos, b.Infos) {
				return false
			}
			for i := range a.Children {
				if !same(a.Children[i], b.Children[i]) {
					return false
				}
			}
			return true
		}
		return same(job.Root, got.Root)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkVisitsEveryOpOnceProperty: Walk enumerates each operation
// exactly once on random trees.
func TestWalkVisitsEveryOpOnceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := 0
		root := randomTree(rng, &id, 0, 50, 0)
		seen := map[string]int{}
		root.Walk(func(op *Operation) { seen[op.ID]++ })
		if len(seen) != id {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
