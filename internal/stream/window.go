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
// closed: zero or more, since an event far in the future closes every
// intervening non-empty window, and the seal closes the last one. An
// ended operation's start and mission come from the job's assembled
// tree, so a tail resumed after its start still sums its duration.
type WindowAgg struct {
	width float64
	job   *Job
	cur   *Window
}

// NewWindowAgg returns an aggregator over job's events with the given
// window width in job seconds (must be positive).
func NewWindowAgg(job *Job, width float64) *WindowAgg {
	return &WindowAgg{width: width, job: job}
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
		w.cur.LastSeq = e.Seq - 1 // events are dense
		closed = append(closed, *w.cur)
		w.cur = nil
	}
	switch e.Type {
	case typeStart:
		w.bucket(idx).Started++
	case typeEnd:
		b := w.bucket(idx)
		b.Completed++
		if start, mission, ok := w.job.opStart(e.Op); ok {
			if b.Phases == nil {
				b.Phases = map[string]float64{}
			}
			b.Phases[mission] += e.Time - start
		}
	}
	// Every event, counted or not, advances the open window's LastSeq.
	if w.cur != nil && e.Seq > w.cur.LastSeq {
		w.cur.LastSeq = e.Seq
	}
	if e.Type == TypeSeal && w.cur != nil {
		closed = append(closed, *w.cur)
		w.cur = nil
	}
	return closed
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
