package stream

// Window is one aggregation bucket over a live job's event-time axis:
// [Start, End) in job seconds. It counts operations started and
// completed in the window and sums completed-operation durations per
// mission ("phase durations" for dashboards). LastSeq is the sequence
// number of the last event folded in, so a watcher resuming from a
// window frame's ID re-enters the stream exactly after it.
type Window struct {
	Index     int                `json:"window"`
	Start     float64            `json:"start"`
	End       float64            `json:"end"`
	Started   int                `json:"started"`
	Completed int                `json:"completed"`
	Phases    map[string]float64 `json:"phases,omitempty"`
	LastSeq   uint64             `json:"lastSeq"`
}

// WindowAgg folds a job's event stream into fixed-width event-time
// windows incrementally. Feed returns the windows that the new event
// closed (zero or more — an event far in the future closes every
// intervening non-empty window); Flush returns the trailing partial
// window, used at seal.
type WindowAgg struct {
	width  float64
	starts map[string]opStart // open ops: start time + mission
	cur    *Window
}

type opStart struct {
	time    float64
	mission string
}

// NewWindowAgg returns an aggregator with the given window width in
// job seconds (must be positive).
func NewWindowAgg(width float64) *WindowAgg {
	return &WindowAgg{width: width, starts: map[string]opStart{}}
}

func (w *WindowAgg) windowFor(t float64) int {
	if t < 0 {
		return 0
	}
	return int(t / w.width)
}

// Feed folds one event and returns any windows it closed, in order.
// Empty intermediate windows are skipped rather than emitted.
func (w *WindowAgg) Feed(e Event) []Window {
	idx := w.windowFor(e.Time)
	var closed []Window
	if w.cur != nil && idx > w.cur.Index {
		w.cur.LastSeq = lastSeqBefore(e.Seq)
		closed = append(closed, *w.cur)
		w.cur = nil
	}
	switch e.Type {
	case typeStart:
		w.starts[e.Op] = opStart{time: e.Time, mission: e.Mission}
		w.bucket(idx).Started++
	case typeEnd:
		b := w.bucket(idx)
		b.Completed++
		if st, ok := w.starts[e.Op]; ok {
			if b.Phases == nil {
				b.Phases = map[string]float64{}
			}
			b.Phases[st.mission] += e.Time - st.time
			delete(w.starts, e.Op)
		}
	case typeInfo, typeEnv, TypeSeal:
		// Counted toward no bucket, but they advance LastSeq for the
		// window they fall into if one is open.
	}
	if w.cur != nil && e.Seq > w.cur.LastSeq {
		w.cur.LastSeq = e.Seq
	}
	return closed
}

// lastSeqBefore returns the sequence number preceding seq (events are
// dense, so the previous event has seq-1).
func lastSeqBefore(seq uint64) uint64 {
	if seq == 0 {
		return 0
	}
	return seq - 1
}

func (w *WindowAgg) bucket(idx int) *Window {
	if w.cur == nil {
		w.cur = &Window{
			Index: idx,
			Start: float64(idx) * w.width,
			End:   float64(idx+1) * w.width,
		}
	}
	return w.cur
}

// Flush returns the trailing partial window, if any, and resets it.
func (w *WindowAgg) Flush() *Window {
	out := w.cur
	w.cur = nil
	return out
}
