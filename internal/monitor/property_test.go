package monitor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/archive"
	"repro/internal/trace"
)

// emitRandomTree emits a random well-nested operation tree through an
// emitter, returning the number of operations emitted.
func emitRandomTree(rng *rand.Rand, em *trace.Emitter, clock *float64, parent trace.OpRef, depth int) int {
	count := 0
	n := 1 + rng.Intn(3)
	if depth >= 3 {
		n = 0
	}
	for i := 0; i < n; i++ {
		*clock += rng.Float64()
		op := em.Start(parent, fmt.Sprintf("A%d", rng.Intn(3)), fmt.Sprintf("M%d", rng.Intn(5)))
		count++
		if rng.Intn(2) == 0 {
			em.Info(op, "k", fmt.Sprint(rng.Intn(10)))
		}
		count += emitRandomTree(rng, em, clock, op, depth+1)
		*clock += rng.Float64()
		em.End(op)
	}
	return count
}

// TestAssembleRandomTreesProperty: any well-nested emitted tree assembles
// into a valid archive job with the same operation count.
func TestAssembleRandomTreesProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := 0.0
		var records []trace.Record
		em := trace.NewEmitter(func(r trace.Record) { records = append(records, r) }, "prop", func() float64 { return clock })
		root := em.Start(trace.Root, "Client", "Job")
		count := 1 + emitRandomTree(rng, em, &clock, root, 0)
		clock += 1
		em.End(root)

		job, err := Assemble("prop", "X", records, nil)
		if err != nil {
			return false
		}
		if err := job.Validate(); err != nil {
			return false
		}
		got := 0
		job.Root.Walk(func(*archive.Operation) { got++ })
		return got == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
