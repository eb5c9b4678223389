// Package sim implements a deterministic, process-based discrete-event
// simulation kernel. It is the foundation of the simulated cluster
// environment on which the graph-processing platforms in this repository
// run: simulated YARN, HDFS, ZooKeeper, MPI, the Pregel engine, and the
// GAS engine are all written as sim processes.
//
// A simulation is driven by an Engine that owns a virtual clock and a
// priority queue of events. Model code runs as processes: ordinary Go
// functions executing on their own goroutine, but scheduled cooperatively
// so that exactly one process runs at any instant. A process advances the
// simulation only by blocking on a kernel primitive (Sleep, Event.Wait,
// Resource.Use, ...). This makes simulations fully deterministic: a given
// sequence of Spawn and primitive calls always produces the same event
// order, because ties in the event queue are broken by a monotonically
// increasing sequence number.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// errStopped is the panic value used to unwind process goroutines when the
// engine shuts down. Process bodies must not recover it; the kernel's
// process wrapper does.
var errStopped = errors.New("sim: engine stopped")

// errInterrupted is returned by Run when Interrupt was called while the
// simulation was executing: the event loop stopped between events and
// the simulation is incomplete. The caller is expected to Shutdown the
// engine to release process goroutines.
var errInterrupted = errors.New("sim: interrupted")

// event is a scheduled callback in the engine's queue.
type event struct {
	at     float64
	seq    uint64
	action func()

	canceled bool
	index    int // heap index, maintained by eventHeap
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine owns the virtual clock and the event queue of one simulation.
// All methods must be called either from outside the simulation before
// Run, or from the currently running process; the kernel is not safe for
// concurrent use from multiple OS threads (it never needs to be, since at
// most one process runs at a time).
type Engine struct {
	now     float64
	queue   eventHeap
	seq     uint64
	running bool
	stopped bool

	// interrupted is the one cross-thread signal the kernel accepts: it
	// may be set from any goroutine while Run executes on another, so it
	// is atomic where every other field is single-threaded.
	interrupted atomic.Bool

	// yield is signalled by the running process when it blocks or ends,
	// returning control to the engine loop.
	yield chan struct{}

	procs   map[*Proc]struct{}
	procSeq uint64

	// fault records the first process panic; Run surfaces it as an error.
	fault error
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// schedule enqueues action to run at time at. It returns the event so the
// caller can cancel it.
func (e *Engine) schedule(at float64, action func()) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev := &event{at: at, seq: e.seq, action: action}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *Engine) cancel(ev *event) {
	ev.canceled = true
}

// procState tracks where a process is in its lifecycle so that kernel
// primitives can detect double-wake bugs instead of deadlocking.
type procState int

const (
	procNew     procState = iota // spawned, start event queued
	procRunning                  // currently executing
	procBlocked                  // suspended in block()
	procWaking                   // wake scheduled, not yet resumed
	procEnded                    // function returned or unwound
)

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// engine. Processes are created with Engine.Spawn and advance simulated
// time only by calling kernel primitives.
type Proc struct {
	eng    *Engine
	name   string
	id     uint64
	resume chan struct{}
	done   *Event
	state  procState
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// Done returns an Event fired when the process function returns. It can be
// waited on by other processes (a join).
func (p *Proc) Done() *Event { return p.done }

// Spawn creates a new process running fn and schedules it to start at the
// current simulated time (after already-queued events at this timestamp).
// It may be called before Run or from a running process.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	if e.stopped {
		panic("sim: Spawn after Shutdown")
	}
	e.procSeq++
	p := &Proc{
		eng:    e,
		name:   name,
		id:     e.procSeq,
		resume: make(chan struct{}),
		done:   NewEvent(e),
	}
	e.procs[p] = struct{}{}
	go func() {
		defer func() {
			if r := recover(); r != nil && r != errStopped { //nolint:errorlint // sentinel identity check
				// Re-panicking here would crash the whole program from a
				// goroutine the caller cannot recover on; record the fault
				// so Run can surface it as an error instead.
				if e.fault == nil {
					e.fault = fmt.Errorf("sim: process %q panicked: %v", name, r)
				}
			}
			p.state = procEnded
			delete(e.procs, p)
			if !e.stopped {
				p.done.Fire()
			}
			e.yield <- struct{}{}
		}()
		<-p.resume
		if e.stopped {
			panic(errStopped)
		}
		fn(p)
	}()
	e.schedule(e.now, func() { e.runProc(p) })
	return p
}

// runProc transfers control to p until it blocks or ends.
func (e *Engine) runProc(p *Proc) {
	switch p.state {
	case procEnded:
		return
	case procRunning:
		panic(fmt.Sprintf("sim: resuming running process %q", p.name))
	}
	p.state = procRunning
	p.resume <- struct{}{}
	<-e.yield
}

// block suspends the calling process until something calls wake on it.
// It must only be called from the process's own goroutine.
func (p *Proc) block() {
	p.state = procBlocked
	p.eng.yield <- struct{}{}
	<-p.resume
	if p.eng.stopped {
		panic(errStopped)
	}
}

// wake schedules p to resume at the current simulated time. It is the
// primitive used by Event, Resource, and the other kernel objects; waking
// a process that is not blocked is a kernel bug and panics.
func (p *Proc) wake() {
	if p.state != procBlocked {
		panic(fmt.Sprintf("sim: waking process %q in state %d", p.name, p.state))
	}
	p.state = procWaking
	p.eng.schedule(p.eng.now, func() { p.eng.runProc(p) })
}

// Sleep suspends the calling process for d seconds of simulated time.
// Negative durations are treated as zero.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, func() { p.eng.runProc(p) })
	p.block()
}

// waitUntil suspends the calling process until the simulated clock reaches
// t. If t is in the past it returns immediately.
func (p *Proc) waitUntil(t float64) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t - p.eng.now)
}

// Run executes events until the queue is empty or the engine is stopped.
// It returns an error if called while already running.
func (e *Engine) Run() error {
	return e.run(-1)
}

// runUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) runUntil(t float64) error {
	return e.run(t)
}

func (e *Engine) run(until float64) error {
	if e.running {
		return errors.New("sim: engine already running")
	}
	if e.stopped {
		return errors.New("sim: engine stopped")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 {
		if e.interrupted.Load() {
			return errInterrupted
		}
		next := e.queue[0]
		if until >= 0 && next.at > until {
			e.now = until
			return nil
		}
		heap.Pop(&e.queue)
		if next.canceled {
			continue
		}
		e.now = next.at
		next.action()
		if e.fault != nil {
			return e.fault
		}
		if e.stopped {
			return nil
		}
	}
	if until >= 0 && until > e.now {
		e.now = until
	}
	return nil
}

// idle reports whether the event queue holds no runnable events.
func (e *Engine) idle() bool {
	for _, ev := range e.queue {
		if !ev.canceled {
			return false
		}
	}
	return true
}

// Interrupt asks a running simulation to stop between events; Run then
// returns errInterrupted. Unlike every other Engine method, Interrupt is
// safe to call from any goroutine — it is how a wall-clock deadline or a
// job cancellation reaches into a simulation that only knows virtual
// time. Interrupting an idle or finished engine is a no-op for any Run
// call that has already returned.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Shutdown terminates every live process by unwinding its goroutine, and
// marks the engine stopped. It is safe to call after Run returns; it is the
// supported way to release goroutines of processes that are still blocked
// (e.g. servers waiting for requests that will never arrive). It returns
// how many processes it unwound: 0 after a model whose processes all
// ended, and on a second call.
func (e *Engine) Shutdown() int {
	if e.stopped {
		return 0
	}
	e.stopped = true
	// Unwind in a stable order for determinism of any recovery side effects.
	live := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		live = append(live, p)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	n := 0
	for _, p := range live {
		if p.state == procEnded {
			continue
		}
		p.resume <- struct{}{}
		<-e.yield
		n++
	}
	e.queue = nil
	return n
}
