package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceSingleTask(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 4, 1)
	var end float64
	e.Spawn("task", func(p *Proc) {
		cpu.Use(p, 2) // 2 cpu-seconds at rate 1 -> 2 seconds
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(end, 2) {
		t.Fatalf("end = %v, want 2", end)
	}
	if !almostEqual(cpu.Consumed(), 2) {
		t.Fatalf("consumed = %v, want 2", cpu.Consumed())
	}
}

func TestResourceParallelTasksUnderCapacity(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 4, 1)
	ends := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("task", func(p *Proc) {
			cpu.Use(p, 5)
			ends[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 tasks on 4 cores: each runs at rate 1, all end at t=5.
	for i, end := range ends {
		if !almostEqual(end, 5) {
			t.Fatalf("task %d end = %v, want 5", i, end)
		}
	}
}

func TestResourceContention(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 2, 1)
	var end float64
	for i := 0; i < 4; i++ {
		e.Spawn("task", func(p *Proc) {
			cpu.Use(p, 3)
			end = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 identical tasks sharing 2 cores: each gets rate 0.5, 3/0.5 = 6s.
	if !almostEqual(end, 6) {
		t.Fatalf("end = %v, want 6", end)
	}
	if !almostEqual(cpu.Consumed(), 12) {
		t.Fatalf("consumed = %v, want 12", cpu.Consumed())
	}
}

func TestResourceWidthActsAsThreads(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 8, 1)
	var wideEnd, narrowEnd float64
	e.Spawn("wide", func(p *Proc) {
		cpu.UseWidth(p, 8, 4) // 4 threads on idle 8-core: rate 4 -> 2s
		wideEnd = p.Now()
	})
	e.Spawn("narrow", func(p *Proc) {
		cpu.Use(p, 2) // rate 1 -> 2s
		narrowEnd = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(wideEnd, 2) {
		t.Fatalf("wide end = %v, want 2", wideEnd)
	}
	if !almostEqual(narrowEnd, 2) {
		t.Fatalf("narrow end = %v, want 2", narrowEnd)
	}
}

func TestResourceLateArrivalSlowsEveryone(t *testing.T) {
	e := NewEngine()
	disk := NewResource(e, "disk", 100, 100) // 100 B/s, single task can use all
	var firstEnd, secondEnd float64
	e.Spawn("first", func(p *Proc) {
		disk.Use(p, 100)
		firstEnd = p.Now()
	})
	e.Spawn("second", func(p *Proc) {
		p.Sleep(0.5)
		disk.Use(p, 100)
		secondEnd = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// First runs alone 0.5s (50 B done), then shares 50 B/s each.
	// First finishes remaining 50 B at t=1.5; second then gets full rate:
	// it has done 50 B by 1.5, finishes remaining 50 B at t=2.0.
	if !almostEqual(firstEnd, 1.5) {
		t.Fatalf("first end = %v, want 1.5", firstEnd)
	}
	if !almostEqual(secondEnd, 2.0) {
		t.Fatalf("second end = %v, want 2.0", secondEnd)
	}
}

func TestResourceZeroAmountReturnsImmediately(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 1, 1)
	ran := false
	e.Spawn("p", func(p *Proc) {
		cpu.Use(p, 0)
		cpu.Use(p, -5)
		ran = true
		if p.Now() != 0 {
			t.Errorf("zero-amount use advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process never ran")
	}
}

func TestResourceActiveRateRespectsCapacity(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 2, 1)
	var observed float64
	for i := 0; i < 5; i++ {
		e.Spawn("task", func(p *Proc) { cpu.Use(p, 10) })
	}
	e.Spawn("observer", func(p *Proc) {
		p.Sleep(1)
		for _, task := range cpu.tasks {
			observed += task.rate
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(observed, 2) {
		t.Fatalf("active rate = %v, want capacity 2", observed)
	}
}

func TestResourceConsumedMonotonic(t *testing.T) {
	e := NewEngine()
	cpu := NewResource(e, "cpu", 3, 1)
	for i := 0; i < 4; i++ {
		amt := float64(i + 1)
		e.Spawn("task", func(p *Proc) {
			p.Sleep(amt / 2)
			cpu.Use(p, amt)
		})
	}
	var samples []float64
	e.Spawn("monitor", func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(0.5)
			samples = append(samples, cpu.Consumed())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1]-1e-9 {
			t.Fatalf("consumed decreased: %v", samples)
		}
	}
	total := samples[len(samples)-1]
	if !almostEqual(total, 1+2+3+4) {
		t.Fatalf("total consumed = %v, want 10", total)
	}
}

// TestResourceConservationProperty checks, for random task sets, that the
// total consumed equals the sum of requested amounts and that no task
// finishes earlier than its ideal solo time (work / per-task cap).
func TestResourceConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		capacity := 1 + rng.Float64()*7
		cpu := NewResource(e, "cpu", capacity, 1)
		n := 1 + rng.Intn(8)
		totalWork := 0.0
		ok := true
		for i := 0; i < n; i++ {
			amount := 0.1 + rng.Float64()*5
			start := rng.Float64() * 3
			totalWork += amount
			e.Spawn("task", func(p *Proc) {
				p.Sleep(start)
				began := p.Now()
				cpu.Use(p, amount)
				elapsed := p.Now() - began
				if elapsed+1e-6 < amount { // per-task cap is 1 unit/s
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && math.Abs(cpu.Consumed()-totalWork) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewResourcePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0, 1)
}
