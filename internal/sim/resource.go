package sim

import (
	"fmt"
	"math"
	"sort"
)

// Resource models a capacity shared by concurrent tasks: CPU (capacity =
// number of cores, in cpu-seconds per second), disk and network bandwidth
// (capacity in bytes per second), and so on.
//
// Sharing follows weighted max-min fairness ("water-filling"): each active
// task i has a rate cap width_i * PerTaskCap, and the capacity is divided
// so that no task exceeds its cap, tasks below their cap receive equal
// rates, and the full capacity is used whenever demand allows. For a CPU
// with PerTaskCap = 1 this reproduces the behaviour of an ideal OS
// scheduler: a task with width w behaves like w runnable threads.
//
// Rates change only when tasks arrive or complete, so the simulation
// settles usage lazily at those instants and schedules exactly one future
// completion event at a time.
type Resource struct {
	eng        *Engine
	name       string
	capacity   float64
	perTaskCap float64

	tasks      []*resTask
	lastSettle float64
	consumed   float64
	pending    *event
}

type resTask struct {
	p         *Proc
	amount    float64 // originally requested units
	remaining float64
	width     float64
	rate      float64
	done      bool
}

// completionEpsilon absorbs floating-point residue when deciding that a
// task has consumed all of its requested amount. It is applied relative to
// the task's original amount: after a completion event fires, the residue
// is bounded by a few ulps of the amount, which an absolute epsilon cannot
// cover for large amounts (e.g. multi-gigabyte transfers) — leaving an
// un-finishable sliver that would reschedule at the same timestamp
// forever.
const completionEpsilon = 1e-9

// finishedAt reports whether the task's remaining work is indistinguishable
// from done: either within the relative epsilon of its original amount, or
// so small that consuming it would advance the clock by less than one ulp
// of the current time — in which case the event queue could never make
// progress on it (the completion event would fire at the same timestamp
// forever).
func (t *resTask) finishedAt(now float64) bool {
	eps := completionEpsilon * math.Max(1, t.amount)
	if t.rate > 0 {
		ulp := math.Nextafter(now, math.Inf(1)) - now
		if slack := t.rate * ulp * 4; slack > eps {
			eps = slack
		}
	}
	return t.remaining <= eps
}

// NewResource returns a resource with the given total capacity (units per
// second) and per-task rate cap for width-1 tasks. Both must be positive.
func NewResource(e *Engine, name string, capacity, perTaskCap float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q: capacity must be positive", name))
	}
	if perTaskCap <= 0 {
		panic(fmt.Sprintf("sim: resource %q: per-task cap must be positive", name))
	}
	return &Resource{eng: e, name: name, capacity: capacity, perTaskCap: perTaskCap}
}

// Engine returns the engine this resource belongs to.
func (r *Resource) Engine() *Engine { return r.eng }

// Consumed returns the cumulative number of units consumed by all tasks up
// to the current simulated time. Monitors sample this and take differences
// to obtain utilization per interval.
func (r *Resource) Consumed() float64 {
	r.settle()
	return r.consumed
}

// Use consumes amount units on behalf of p with width 1, blocking p until
// the work completes under fair sharing.
func (r *Resource) Use(p *Proc, amount float64) {
	r.UseWidth(p, amount, 1)
}

// UseWidth consumes amount units on behalf of p, allowing the task a rate
// of up to width * PerTaskCap. On a CPU, width is the task's parallelism
// (number of runnable threads). Zero or negative amounts return
// immediately.
func (r *Resource) UseWidth(p *Proc, amount, width float64) {
	if amount <= 0 {
		return
	}
	if width <= 0 {
		panic(fmt.Sprintf("sim: resource %q: non-positive width", r.name))
	}
	r.settle()
	t := &resTask{p: p, amount: amount, remaining: amount, width: width}
	r.tasks = append(r.tasks, t)
	r.reschedule()
	for !t.done {
		p.block()
	}
}

// settle charges usage accrued since the last settle instant to every
// active task at its current rate.
func (r *Resource) settle() {
	now := r.eng.now
	dt := now - r.lastSettle
	r.lastSettle = now
	if dt <= 0 || len(r.tasks) == 0 {
		return
	}
	for _, t := range r.tasks {
		used := t.rate * dt
		if used > t.remaining {
			used = t.remaining
		}
		t.remaining -= used
		r.consumed += used
	}
}

// recomputeRates runs the water-filling allocation across active tasks.
func (r *Resource) recomputeRates() {
	n := len(r.tasks)
	if n == 0 {
		return
	}
	// Sort indices by cap ascending; tasks with small caps saturate first.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.tasks[idx[a]].width < r.tasks[idx[b]].width
	})
	remainingCap := r.capacity
	remainingWeight := 0.0
	for _, t := range r.tasks {
		remainingWeight += t.width
	}
	for _, i := range idx {
		t := r.tasks[i]
		cap := t.width * r.perTaskCap
		// Fair share proportional to width among tasks not yet assigned.
		share := remainingCap * t.width / remainingWeight
		rate := math.Min(cap, share)
		t.rate = rate
		remainingCap -= rate
		remainingWeight -= t.width
	}
}

// reschedule recomputes rates and schedules the next completion event.
func (r *Resource) reschedule() {
	if r.pending != nil {
		r.eng.cancel(r.pending)
		r.pending = nil
	}
	if len(r.tasks) == 0 {
		return
	}
	r.recomputeRates()
	next := math.Inf(1)
	for _, t := range r.tasks {
		if t.rate <= 0 {
			panic(fmt.Sprintf("sim: resource %q: task with zero rate", r.name))
		}
		if eta := t.remaining / t.rate; eta < next {
			next = eta
		}
	}
	at := r.eng.now + next
	if at <= r.eng.now {
		// The nearest completion is below the clock's float resolution;
		// schedule at the next representable instant so the event always
		// makes progress (complete's finishedAt absorbs the sliver).
		at = math.Nextafter(r.eng.now, math.Inf(1))
	}
	r.pending = r.eng.schedule(at, r.complete)
}

// complete fires when at least one task has finished its amount: it
// settles usage, removes finished tasks, wakes their owners, and
// reschedules the remainder.
func (r *Resource) complete() {
	r.pending = nil
	r.settle()
	kept := r.tasks[:0]
	var finished []*resTask
	for _, t := range r.tasks {
		if t.finishedAt(r.eng.now) {
			r.consumed += t.remaining // charge the residue so totals balance
			t.remaining = 0
			t.done = true
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	r.tasks = kept
	for _, t := range finished {
		t.p.wake()
	}
	r.reschedule()
}
