package metrics

import (
	"bytes"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is the operational-metrics side of this package: where
// granula-serve and granula-router declare what they expose on
// /metrics, and the only code in the tree that formats the Prometheus
// text exposition. Families are written in declaration order. Counting
// and observing take no lock, and Write holds none while it renders,
// while a sampler runs or while it writes, so neither a slow scraper
// nor a slow sampler can stall the measured path. It lives here because
// both internal/service and internal/shard can import this package
// without importing each other.
type Registry struct {
	families []family
}

// family is one declared slot: a header and the metric under it. A
// Sampled slot has no header of its own; its sampler emits whole
// families through the Emitter.
type family struct {
	name, help, kind string
	m                metric
}

// metric writes its sample lines under name. labels is a rendered
// label-pair prefix with a trailing comma (`shard="s1",`), empty at the
// top level.
type metric interface {
	write(e *Emitter, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(name, help, kind string, m metric) {
	r.families = append(r.families, family{name, help, kind, m})
}

// Write renders every family into a buffer and hands it to w in one
// Write call.
func (r *Registry) Write(w io.Writer) {
	var e Emitter
	for _, f := range r.families {
		if f.name != "" {
			e.Header(f.name, f.help, f.kind)
		}
		f.m.write(&e, f.name, "")
	}
	w.Write(e.buf.Bytes()) //nolint:errcheck // a scraper that hung up has nobody to tell
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// value returns the current count.
func (c *Counter) value() uint64 { return c.n.Load() }

func (c *Counter) write(e *Emitter, name, labels string) {
	e.line(name, "", labels, strconv.FormatUint(c.value(), 10))
}

// Counter declares an unlabelled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", c)
	return c
}

// vec is the children of one label. A vec with declared values is
// closed: exactly those children exist from the start, written in the
// order declared, and asking for any other value panics, so a misspelt
// value fails the first time it is used and not silently as a new
// series. A vec without is open: children appear as values are first
// seen and are written sorted. The child map is copy-on-write, so a hit
// is one atomic load and a map lookup; only the first sight of a value
// takes the mutex.
type vec struct {
	label    string
	declared []string
	mk       func() metric
	mu       sync.Mutex
	kids     atomic.Pointer[map[string]metric]
}

func newVec(label string, declared []string, mk func() metric) *vec {
	v := &vec{label: label, declared: declared, mk: mk}
	kids := make(map[string]metric, len(declared))
	for _, value := range declared {
		kids[value] = mk()
	}
	v.kids.Store(&kids)
	return v
}

func (v *vec) with(value string) metric {
	if m, ok := (*v.kids.Load())[value]; ok {
		return m
	}
	if v.declared != nil {
		panic("metrics: " + v.label + "=" + strconv.Quote(value) + " is not a declared value")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.kids.Load()
	if m, ok := old[value]; ok {
		return m
	}
	kids, m := maps.Clone(old), v.mk()
	kids[value] = m
	v.kids.Store(&kids)
	return m
}

func (v *vec) write(e *Emitter, name, labels string) {
	kids := *v.kids.Load()
	values := v.declared
	if values == nil {
		for value := range kids {
			values = append(values, value)
		}
		slices.Sort(values)
	}
	for _, value := range values {
		kids[value].write(e, name, labels+v.label+"="+strconv.Quote(value)+",")
	}
}

// CounterVec is a counter family with one label.
type CounterVec struct{ v *vec }

// With returns the counter for one label value.
func (c CounterVec) With(value string) *Counter { return c.v.with(value).(*Counter) }

func newCounter() metric { return &Counter{} }

// CounterVec declares a counter family with one label: closed over the
// declared values if there are any (all written from the start, at
// zero, in the order given), else open (a value appears once counted,
// values sorted). Resolve a closed family's children once, where it is
// declared, so that call sites name a field and not a string.
func (r *Registry) CounterVec(name, help, label string, declared ...string) CounterVec {
	v := newVec(label, declared, newCounter)
	r.add(name, help, "counter", v)
	return CounterVec{v}
}

// CounterVec2 is a counter family with two labels: an outer one whose
// values appear as they are seen, and an inner one with declared values.
type CounterVec2 struct{ v *vec }

// With returns the inner vector for one outer label value.
func (c CounterVec2) With(outer string) CounterVec { return CounterVec{c.v.with(outer).(*vec)} }

// CounterVec2 declares a two-label counter family.
func (r *Registry) CounterVec2(name, help, outer, inner string, declared ...string) CounterVec2 {
	v := newVec(outer, nil, func() metric { return newVec(inner, declared, newCounter) })
	r.add(name, help, "counter", v)
	return CounterVec2{v}
}

// latencyBuckets are the histogram's bucket upper bounds in seconds.
// They span sub-millisecond JSON handlers to multi-second simulation
// submissions, and are the same for every latency the serving layers
// export so dashboards line up.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is the fixed-bucket latency histogram behind every /metrics
// histogram: granula-serve's per-route request latency, the router's
// per-shard proxy latency, and the replication quorum wait. Each bucket
// counts only its own range and write cumulates them, so the +Inf
// bucket and _count are one total by construction.
type Histogram struct {
	buckets [len(latencyBuckets) + 1]atomic.Uint64 // last: above every bound
	sum     atomic.Uint64                          // float64 bits
}

// Observe records one value, in seconds.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(latencyBuckets) && !(v <= latencyBuckets[i]) {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (h *Histogram) write(e *Emitter, name, labels string) {
	var total uint64
	for i, ub := range latencyBuckets {
		total += h.buckets[i].Load()
		le := `le="` + strconv.FormatFloat(ub, 'g', -1, 64) + `",`
		e.line(name, "_bucket", labels+le, strconv.FormatUint(total, 10))
	}
	total += h.buckets[len(latencyBuckets)].Load()
	count := strconv.FormatUint(total, 10)
	e.line(name, "_bucket", labels+`le="+Inf",`, count)
	sum := math.Float64frombits(h.sum.Load())
	e.line(name, "_sum", labels, strconv.FormatFloat(sum, 'g', -1, 64))
	e.line(name, "_count", labels, count)
}

// Histogram declares an unlabelled histogram family.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(name, help, "histogram", h)
	return h
}

// HistogramVec is a histogram family with one label, values sorted.
type HistogramVec struct{ v *vec }

// With returns the histogram for one label value.
func (h HistogramVec) With(value string) *Histogram { return h.v.with(value).(*Histogram) }

// HistogramVec declares a histogram family with one label.
func (r *Registry) HistogramVec(name, help, label string) HistogramVec {
	v := newVec(label, nil, func() metric { return &Histogram{} })
	r.add(name, help, "histogram", v)
	return HistogramVec{v}
}

// Sampled is a slot whose families are read at scrape time. Until a
// sampler is bound the slot writes nothing, and a bound sampler may
// also write nothing (a node without durable storage has no storage
// family).
type Sampled struct {
	fn atomic.Pointer[func(*Emitter)]
}

// Sampled declares a scrape-time slot at this point of the order.
func (r *Registry) Sampled() *Sampled {
	s := &Sampled{}
	r.add("", "", "", s)
	return s
}

// Bind sets the sampler. It runs on every Write with no lock held, and
// declares the families it samples by writing them through the Emitter.
func (s *Sampled) Bind(fn func(*Emitter)) { s.fn.Store(&fn) }

func (s *Sampled) write(e *Emitter, _, _ string) {
	if fn := s.fn.Load(); fn != nil {
		(*fn)(e)
	}
}

// Emitter formats the exposition for Write and for the samplers Write
// runs.
type Emitter struct {
	buf bytes.Buffer
}

// Header writes a family's # HELP and # TYPE lines; kind is "counter",
// "gauge" or "histogram".
func (e *Emitter) Header(name, help, kind string) {
	e.buf.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + kind + "\n")
}

// line writes one sample line: the name with its suffix, the label set
// (labels minus its trailing comma) if there is one, and the value.
func (e *Emitter) line(name, suffix, labels, value string) {
	e.buf.WriteString(name + suffix)
	if labels != "" {
		e.buf.WriteString("{" + labels[:len(labels)-1] + "}")
	}
	e.buf.WriteString(" " + value + "\n")
}

// Counter writes a whole unlabelled counter family.
func (e *Emitter) Counter(name, help string, v uint64) {
	e.Header(name, help, "counter")
	e.line(name, "", "", strconv.FormatUint(v, 10))
}

// Gauge writes a whole unlabelled gauge family.
func (e *Emitter) Gauge(name, help string, v int64) {
	e.Header(name, help, "gauge")
	e.line(name, "", "", strconv.FormatInt(v, 10))
}

// Sample writes one label="value" sample of the family Header opened.
func (e *Emitter) Sample(name, label, value string, v int64) {
	e.line(name, "", label+"="+strconv.Quote(value)+",", strconv.FormatInt(v, 10))
}
