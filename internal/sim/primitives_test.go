package sim

import (
	"testing"
)

func TestEventBroadcast(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var woken []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			ev.Wait(p)
			woken = append(woken, name)
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(2)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != 3 {
		t.Fatalf("woken = %v, want 3 entries", woken)
	}
	// FIFO wake order.
	for i, want := range []string{"w1", "w2", "w3"} {
		if woken[i] != want {
			t.Fatalf("woken = %v, want FIFO order", woken)
		}
	}
	if !ev.fired {
		t.Fatal("event should report fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	ev.Fire()
	ev.Fire() // double fire is a no-op
	ran := false
	e.Spawn("p", func(p *Proc) {
		ev.Wait(p)
		ran = true
		if p.Now() != 0 {
			t.Errorf("wait on fired event advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process never ran")
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(1)
			mb.Put(i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want 1..5 in order", got)
		}
	}
}

func TestMailboxMultipleReceivers(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e)
	received := map[string]int{}
	for _, name := range []string{"r1", "r2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			received[name] = mb.Get(p)
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(1)
		mb.Put(10)
		mb.Put(20)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if received["r1"] != 10 || received["r2"] != 20 {
		t.Fatalf("received = %v, want r1:10 r2:20 (FIFO receivers)", received)
	}
}

func TestBarrierRounds(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 3)
	gens := make(map[string][]int)
	for i, name := range []string{"a", "b", "c"} {
		name, delay := name, float64(i)
		e.Spawn(name, func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Sleep(delay + 1)
				gen := b.Await(p)
				gens[name] = append(gens[name], gen)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		g := gens[name]
		if len(g) != 2 || g[0] != 0 || g[1] != 1 {
			t.Fatalf("%s generations = %v, want [0 1]", name, g)
		}
	}
}

func TestBarrierSingleParty(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 1)
	e.Spawn("solo", func(p *Proc) {
		if gen := b.Await(p); gen != 0 {
			t.Errorf("gen = %d, want 0", gen)
		}
		if gen := b.Await(p); gen != 1 {
			t.Errorf("gen = %d, want 1", gen)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewBarrierPanicsOnZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(NewEngine(), 0)
}

func TestMailboxTryGet(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[string](e)
	if _, ok := mb.tryGet(); ok {
		t.Fatal("tryGet on empty mailbox returned ok")
	}
	mb.Put("x")
	if len(mb.items) != 1 {
		t.Fatalf("queued = %d, want 1", len(mb.items))
	}
	v, ok := mb.tryGet()
	if !ok || v != "x" {
		t.Fatalf("tryGet = %q,%v, want x,true", v, ok)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := newSemaphore(e, 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			sem.acquire(p, 1)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(1)
			active--
			sem.release(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if !almostEqual(e.Now(), 3) {
		t.Fatalf("finished at %v, want 3 (6 jobs / 2 slots)", e.Now())
	}
	if sem.avail != 2 {
		t.Fatalf("avail = %d, want 2", sem.avail)
	}
}

func TestSemaphoreFIFONoStarvation(t *testing.T) {
	e := NewEngine()
	sem := newSemaphore(e, 2)
	var order []string
	e.Spawn("hog", func(p *Proc) {
		sem.acquire(p, 2)
		p.Sleep(1)
		sem.release(2)
	})
	// big arrives second and needs both permits; smalls arrive later.
	e.Spawn("big", func(p *Proc) {
		p.Sleep(0.1)
		sem.acquire(p, 2)
		order = append(order, "big")
		sem.release(2)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(0.2)
		sem.acquire(p, 1)
		order = append(order, "small")
		sem.release(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small] (FIFO)", order)
	}
}

func TestNewSemaphorePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSemaphore(NewEngine(), -1)
}
