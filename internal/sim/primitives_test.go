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
