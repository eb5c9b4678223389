package sim

import (
	"math"
	"testing"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-6
}

func TestEngineClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke float64
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(woke, 2.5) {
		t.Fatalf("woke at %v, want 2.5", woke)
	}
	if !almostEqual(e.Now(), 2.5) {
		t.Fatalf("engine now %v, want 2.5", e.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-1)
		ran = true
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process did not run")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					order = append(order, name)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if len(first) != len(want) {
		t.Fatalf("order = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range want {
			if got[i] != first[i] {
				t.Fatalf("trial %d diverged: %v vs %v", trial, got, first)
			}
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childTime float64
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		child := e.Spawn("child", func(c *Proc) {
			c.Sleep(2)
			childTime = c.Now()
		})
		child.Done().Wait(p)
		if !almostEqual(p.Now(), 3) {
			t.Errorf("parent joined at %v, want 3", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(childTime, 3) {
		t.Fatalf("child finished at %v, want 3", childTime)
	}
}

func TestDoneEventAfterCompletion(t *testing.T) {
	e := NewEngine()
	worker := e.Spawn("worker", func(p *Proc) { p.Sleep(1) })
	joined := false
	e.Spawn("late", func(p *Proc) {
		p.Sleep(5)
		worker.Done().Wait(p) // already fired; returns immediately
		joined = true
		if !almostEqual(p.Now(), 5) {
			t.Errorf("late join advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Fatal("late process never joined")
	}
}

func TestShutdownReleasesBlockedProcesses(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Spawn("stuck", func(p *Proc) {
		ev.Wait(p) // never fired
		t.Error("stuck process resumed normally")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := e.Shutdown(); n != 1 {
		t.Fatalf("Shutdown unwound %d processes, want 1", n)
	}
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("second Shutdown unwound %d processes, want 0", n)
	}
}

func TestProcessPanicIsReported(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Spawn("p", func(p *Proc) {
		p.waitUntil(3)
		times = append(times, p.Now())
		p.waitUntil(1) // already past; must not block or rewind
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || !almostEqual(times[0], 3) || !almostEqual(times[1], 3) {
		t.Fatalf("times = %v, want [3 3]", times)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
			ticks++
		}
	})
	if err := e.runUntil(10.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if !almostEqual(e.Now(), 10.5) {
		t.Fatalf("now = %v, want 10.5", e.Now())
	}
	// Resuming runs the rest.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d after full run, want 100", ticks)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	if err := e.runUntil(42); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Now(), 42) {
		t.Fatalf("now = %v, want 42", e.Now())
	}
}

func TestIdleReflectsQueue(t *testing.T) {
	e := NewEngine()
	if !e.idle() {
		t.Fatal("new engine should be idle")
	}
	e.Spawn("p", func(p *Proc) { p.Sleep(1) })
	if e.idle() {
		t.Fatal("engine with pending spawn should not be idle")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.idle() {
		t.Fatal("engine should be idle after Run")
	}
}
