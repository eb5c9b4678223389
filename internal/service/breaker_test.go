package service

import (
	"testing"
	"time"
)

// fakeBreaker returns a breaker on a fake clock; advance moves time.
func fakeBreaker(threshold int, cooldown time.Duration, onTransition func(breakerState)) (b *breaker, advance func(time.Duration)) {
	now := time.Unix(1000, 0)
	b = newBreaker(threshold, cooldown, onTransition)
	b.now = func() time.Time { return now }
	return b, func(d time.Duration) { now = now.Add(d) }
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, advance := fakeBreaker(3, time.Second, nil)
	if b.current() != breakerClosed {
		t.Fatalf("new breaker is %v", b.current())
	}
	b.failure()
	b.failure()
	if b.current() != breakerClosed {
		t.Fatalf("breaker tripped below threshold: %v", b.current())
	}
	if !b.allow() {
		t.Fatal("closed breaker refused work")
	}
	b.failure()
	if b.current() != breakerOpen {
		t.Fatalf("breaker did not trip at threshold: %v", b.current())
	}
	if b.allow() {
		t.Fatal("open breaker admitted work before cooldown")
	}
	advance(time.Second)
	if !b.allow() {
		t.Fatal("open breaker refused the trial after cooldown")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("post-cooldown Allow left breaker %v, want half-open", b.current())
	}
	b.success()
	if b.current() != breakerClosed {
		t.Fatalf("trial success left breaker %v, want closed", b.current())
	}
	// The failure streak must have reset: two failures stay closed.
	b.failure()
	b.failure()
	if b.current() != breakerClosed {
		t.Fatal("failure streak survived a success")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, advance := fakeBreaker(1, time.Second, nil)
	b.failure()
	advance(time.Second)
	if !b.allow() {
		t.Fatal("no trial after cooldown")
	}
	b.failure() // the trial fails
	if b.current() != breakerOpen {
		t.Fatalf("failed trial left breaker %v, want open", b.current())
	}
	// The cooldown restarted at the trial failure.
	advance(time.Second / 2)
	if b.allow() {
		t.Fatal("breaker admitted work half way into the restarted cooldown")
	}
	advance(time.Second / 2)
	if !b.allow() {
		t.Fatal("breaker refused the next trial after the restarted cooldown")
	}
}

func TestBreakerFailureWhileOpenRestartsCooldown(t *testing.T) {
	b, advance := fakeBreaker(1, time.Second, nil)
	b.failure()
	advance(800 * time.Millisecond)
	b.failure() // e.g. a shedding caller reporting late
	advance(800 * time.Millisecond)
	if b.allow() {
		t.Fatal("cooldown was not restarted by the open-state failure")
	}
}

func TestBreakerTryProbe(t *testing.T) {
	b, advance := fakeBreaker(1, time.Second, nil)
	if b.tryProbe() {
		t.Fatal("closed breaker offered a probe")
	}
	b.failure()
	if b.tryProbe() {
		t.Fatal("probe offered before cooldown")
	}
	advance(time.Second)
	if !b.tryProbe() {
		t.Fatal("no probe after cooldown")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("TryProbe left breaker %v, want half-open", b.current())
	}
	if b.tryProbe() {
		t.Fatal("half-open breaker offered a second concurrent probe")
	}
	b.success()
	if b.current() != breakerClosed {
		t.Fatalf("probe success left breaker %v, want closed", b.current())
	}
}

func TestBreakerTransitionsObserved(t *testing.T) {
	var seen []breakerState
	b, advance := fakeBreaker(2, time.Second, func(s breakerState) { seen = append(seen, s) })
	b.failure()
	b.failure() // -> open
	advance(time.Second)
	b.allow()   // -> half-open
	b.failure() // -> open
	advance(time.Second)
	b.tryProbe() // -> half-open
	b.success()  // -> closed
	want := []breakerState{breakerOpen, breakerHalfOpen, breakerOpen, breakerHalfOpen, breakerClosed}
	if len(seen) != len(want) {
		t.Fatalf("transitions %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d is %v, want %v (all: %v)", i, seen[i], want[i], seen)
		}
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := newBreaker(0, 0, nil)
	for i := 0; i < 4; i++ {
		b.failure()
	}
	if b.current() != breakerClosed {
		t.Fatal("default threshold is below 5")
	}
	b.failure()
	if b.current() != breakerOpen {
		t.Fatal("default threshold is above 5")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if breakerClosed.String() != "closed" || breakerHalfOpen.String() != "half-open" || breakerOpen.String() != "open" {
		t.Fatal("breaker state names changed; /metrics and /healthz consumers depend on them")
	}
}
