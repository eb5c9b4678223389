package service

import (
	"sync"
	"time"
)

// breakerState is the archive-persistence circuit breaker's state.
type breakerState int

// The breaker states, ordered by severity so the Prometheus gauge is
// monotone in "how degraded is the store".
const (
	// breakerClosed is normal operation: every persist goes to disk.
	breakerClosed breakerState = iota
	// breakerHalfOpen admits trial operations after the cooldown; one
	// success closes the breaker, one failure re-opens it.
	breakerHalfOpen
	// breakerOpen is degraded read-only mode: persists are refused
	// without touching storage, reads keep serving from the in-memory
	// cache, and submits are shed with 503.
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// breaker is a consecutive-failure circuit breaker. It trips open after
// Threshold consecutive failures, refuses work while open, and after
// Cooldown lets a trial through (half-open) — either a caller's real
// operation via allow or the store's background probe via tryProbe.
// A trial success closes the breaker; a trial failure re-opens it and
// restarts the cooldown. It is safe for concurrent use.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time

	threshold int
	cooldown  time.Duration
	now       func() time.Time
	// onTransition observes every state change (metrics); called with
	// the new state while the breaker lock is held, so it must not call
	// back into the breaker.
	onTransition func(breakerState)
}

// newBreaker returns a closed breaker. threshold < 1 selects 5;
// cooldown <= 0 selects 5 s. onTransition may be nil.
func newBreaker(threshold int, cooldown time.Duration, onTransition func(breakerState)) *breaker {
	if threshold < 1 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{
		threshold:    threshold,
		cooldown:     cooldown,
		now:          time.Now,
		onTransition: onTransition,
	}
}

func (b *breaker) transitionLocked(to breakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if to == breakerOpen {
		b.openedAt = b.now()
	}
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// current returns the current state.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// allow reports whether an operation may proceed. Closed and half-open
// admit; open admits only once the cooldown has elapsed, in which case
// the breaker moves to half-open and the operation is the trial.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.transitionLocked(breakerHalfOpen)
		return true
	default:
		return true
	}
}

// tryProbe reports whether a background recovery probe should run now:
// only when the breaker is open and the cooldown has elapsed. It moves
// the breaker to half-open; the caller must report the probe's outcome
// via success or failure.
func (b *breaker) tryProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen || b.now().Sub(b.openedAt) < b.cooldown {
		return false
	}
	b.transitionLocked(breakerHalfOpen)
	return true
}

// success records a successful operation: the failure streak resets and
// a half-open (or open) breaker closes.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.transitionLocked(breakerClosed)
}

// failure records a failed operation: a half-open trial failure
// re-opens immediately; a closed breaker opens once the consecutive
// failure count reaches the threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	switch b.state {
	case breakerHalfOpen:
		b.transitionLocked(breakerOpen)
	case breakerClosed:
		if b.fails >= b.threshold {
			b.transitionLocked(breakerOpen)
		}
	case breakerOpen:
		b.openedAt = b.now() // restart the cooldown
	}
}
