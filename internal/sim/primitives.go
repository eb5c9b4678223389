package sim

// This file provides the synchronization primitives used by model code:
// one-shot events, FIFO mailboxes, and reusable barriers. All of them follow the same discipline: a process that cannot
// make progress registers itself and calls block(); whoever makes progress
// possible calls wake() on the waiters in FIFO order, preserving
// determinism.

// Event is a one-shot broadcast signal. Processes that Wait before Fire are
// suspended until Fire; Wait after Fire returns immediately. A fired Event
// never resets.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
}

// NewEvent returns an unfired event bound to e.
func NewEvent(e *Engine) *Event {
	return &Event{eng: e}
}

// Fire marks the event fired and wakes all waiters in arrival order.
// Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	waiters := ev.waiters
	ev.waiters = nil
	for _, p := range waiters {
		p.wake()
	}
}

// Wait suspends p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.block()
}

// Mailbox is an unbounded FIFO queue of values of type T with blocking
// receive. Put never blocks; Get suspends the caller until a value is
// available. Multiple receivers are served in the order they arrived.
type Mailbox[T any] struct {
	eng     *Engine
	items   []T
	waiters []*Proc
}

// NewMailbox returns an empty mailbox bound to e.
func NewMailbox[T any](e *Engine) *Mailbox[T] {
	return &Mailbox[T]{eng: e}
}

// Put enqueues v and wakes the oldest waiting receiver, if any. It may be
// called from any process or from non-process setup code.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w.wake()
	}
}

// Get dequeues the oldest value, suspending p until one is available.
func (m *Mailbox[T]) Get(p *Proc) T {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p)
		p.block()
	}
	v := m.items[0]
	m.items = m.items[1:]
	// If values remain and other receivers are waiting, hand over.
	if len(m.items) > 0 && len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w.wake()
	}
	return v
}

// Barrier is a reusable synchronization barrier for a fixed number of
// parties. The n-th arriving process releases all waiters and the barrier
// resets for the next round. Await returns the generation number that was
// completed, starting at 0.
type Barrier struct {
	eng     *Engine
	parties int
	arrived []*Proc
	gen     int
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{eng: e, parties: parties}
}

// Await blocks p until all parties have arrived, then returns the completed
// generation number.
func (b *Barrier) Await(p *Proc) int {
	gen := b.gen
	if len(b.arrived)+1 == b.parties {
		waiters := b.arrived
		b.arrived = nil
		b.gen++
		for _, w := range waiters {
			w.wake()
		}
		return gen
	}
	b.arrived = append(b.arrived, p)
	for b.gen == gen {
		p.block()
	}
	return gen
}
