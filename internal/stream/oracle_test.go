package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/archive"
	"repro/internal/envmon"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// refJob is the live log Job kept before its samples became columns:
// every accepted event, env samples included, in one []Event. It is the
// oracle of Job's log. Its own assembler takes the same records, so the
// two accept and refuse the same input.
type refJob struct {
	events    []Event
	lastSeq   uint64
	asm       *monitor.Assembler
	sealed    bool
	platform  string
	algorithm string
}

func newRefJob(id string) *refJob { return &refJob{asm: monitor.NewAssembler(id)} }

func (j *refJob) ingest(events []Event, maxEvents int) (Result, error) {
	var res Result
	res.LastSeq = j.lastSeq
	i := 0
	for i < len(events) && events[i].Seq <= j.lastSeq {
		i++
	}
	res.Duplicates = i
	fresh := events[i:]
	if len(fresh) == 0 {
		return res, nil
	}
	if j.sealed {
		return res, ErrSealed
	}
	for k := range fresh {
		want := j.lastSeq + 1 + uint64(k)
		if fresh[k].Seq != want {
			return res, &GapError{Expected: want, Got: fresh[k].Seq}
		}
		if fresh[k].Type == TypeSeal && k < len(fresh)-1 {
			return res, fmt.Errorf("%w: event %d follows the seal at %d", ErrSealed, fresh[k+1].Seq, fresh[k].Seq)
		}
	}
	if maxEvents > 0 && len(j.events)+len(fresh) > maxEvents {
		return res, ErrOverflow
	}
	var recs []trace.Record
	for k := range fresh {
		if r, ok := fresh[k].record(); ok {
			recs = append(recs, r)
		}
	}
	if err := j.asm.AddBatch(recs, fresh[len(fresh)-1].Type == TypeSeal); err != nil {
		return res, fmt.Errorf("stream: events %d-%d: %w", fresh[0].Seq, fresh[len(fresh)-1].Seq, err)
	}
	for _, e := range fresh {
		j.log(e)
	}
	res.Accepted = len(fresh)
	res.LastSeq = j.lastSeq
	res.Sealed = j.sealed
	res.NewEvents = fresh
	return res, nil
}

func (j *refJob) log(e Event) {
	j.events = append(j.events, e)
	j.lastSeq = e.Seq
	if e.Type == TypeSeal {
		j.sealed = true
		j.platform = e.Platform
		j.algorithm = e.Algorithm
	}
}

func (j *refJob) publish(e Event, rec *trace.Record) error {
	if j.sealed {
		return ErrSealed
	}
	if rec != nil {
		if err := j.asm.Add(*rec); err != nil {
			return err
		}
	}
	e.Seq = j.lastSeq + 1
	j.log(e)
	return nil
}

func (j *refJob) publishRecord(r trace.Record) error {
	return j.publish(Event{
		Type: string(r.Event), Time: r.Time,
		Op: r.Op, Parent: r.Parent, Actor: r.Actor, Mission: r.Mission,
		Key: r.Key, Value: r.Value,
	}, &r)
}

func (j *refJob) publishSample(s envmon.Sample) error {
	return j.publish(Event{Type: typeEnv, Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used}, nil)
}

func (j *refJob) seal(platform, algorithm, state string, at float64) error {
	if j.sealed {
		return ErrSealed
	}
	if state == StateDone {
		if err := j.asm.AddBatch(nil, true); err != nil {
			return err
		}
	}
	j.log(Event{Seq: j.lastSeq + 1, Type: TypeSeal, Time: at, Platform: platform, Algorithm: algorithm, State: state})
	return nil
}

func (j *refJob) eventsAfter(seq uint64) []Event {
	if seq >= j.lastSeq {
		return nil
	}
	return j.events[seq:len(j.events):len(j.events)]
}

func (j *refJob) progress() (events, completedOps, openOps int) {
	return len(j.events), j.asm.Ended(), j.asm.Open()
}

func (j *refJob) buildArchive() (*archive.Job, error) {
	if !j.sealed {
		return nil, fmt.Errorf("not sealed")
	}
	var samples []archive.EnvSample
	for _, e := range j.events {
		if e.Type == typeEnv {
			samples = append(samples, archive.EnvSample{Time: e.Time, Node: e.Node, Kind: e.Kind, Used: e.Used})
		}
	}
	job, err := j.asm.Finish(j.platform, samples)
	if err != nil {
		return nil, err
	}
	job.Root = copyOp(job.Root)
	metrics.StandardRules().Apply(job)
	metrics.AnnotateDomainBreakdown(job) //nolint:errcheck
	if err := job.Validate(); err != nil {
		return nil, err
	}
	return job, nil
}

// sameEvents compares events field by field, floats by their bits: ==
// calls 0 and -0 equal, the wire does not.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) ||
			math.Float64bits(a[i].Used) != math.Float64bits(b[i].Used) {
			return false
		}
	}
	return true
}

// watchFrames renders evs as /watch does: one frame per event, or with a
// positive width the windows they close and the seal.
func watchFrames(t *testing.T, j *Job, evs []Event, width float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	var agg *WindowAgg
	if width > 0 {
		agg = NewWindowAgg(j, width)
	}
	for _, e := range evs {
		var err error
		if agg == nil {
			err = WriteFrame(&buf, e.Seq, EventFrameName(e), e)
		} else {
			for _, win := range agg.Feed(e) {
				if err = WriteFrame(&buf, win.LastSeq, "window", win); err != nil {
					break
				}
			}
			if err == nil && e.Type == TypeSeal {
				err = WriteFrame(&buf, e.Seq, "seal", e)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// logPair is a live job and its oracle, driven with the same calls.
type logPair struct {
	t   *testing.T
	j   *Job
	ref *refJob
}

// sameErr fails unless both calls failed with the same message or both
// succeeded.
func (p *logPair) sameErr(what string, got, want error) {
	p.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		p.t.Fatalf("%s: error %v, oracle %v", what, got, want)
	}
}

// check compares the two logs: EventsAfter at the cursors given, or at
// every cursor if all is set, and at the cursors given the stream-batch
// payload and the /watch frames, plain and windowed, of each window;
// then Progress and, once sealed, the archive bytes.
func (p *logPair) check(all bool, cursors ...uint64) {
	p.t.Helper()
	last := p.ref.lastSeq
	if got := p.j.LastSeq(); got != last {
		p.t.Fatalf("LastSeq %d, oracle %d", got, last)
	}
	for k := uint64(0); all && k <= last+1; k++ {
		if got, want := p.j.EventsAfter(k), p.ref.eventsAfter(k); !sameEvents(got, want) {
			p.t.Fatalf("EventsAfter(%d) of %d: %d events, oracle %d\n got %+v\nwant %+v", k, last, len(got), len(want), got, want)
		}
	}
	for _, k := range cursors {
		got, want := p.j.EventsAfter(k), p.ref.eventsAfter(k)
		if !sameEvents(got, want) {
			p.t.Fatalf("EventsAfter(%d) of %d: %d events, oracle %d\n got %+v\nwant %+v", k, last, len(got), len(want), got, want)
		}
		gotWAL, err1 := EncodeEvents(got)
		wantWAL, err2 := EncodeEvents(want)
		if err1 != nil || err2 != nil || !bytes.Equal(gotWAL, wantWAL) {
			p.t.Fatalf("EventsAfter(%d): batch payload differs (%v, %v)", k, err1, err2)
		}
		for _, width := range []float64{0, 2.5} {
			if g, w := watchFrames(p.t, p.j, got, width), watchFrames(p.t, p.j, want, width); !bytes.Equal(g, w) {
				p.t.Fatalf("EventsAfter(%d): frames at width %v differ\n got %s\nwant %s", k, width, g, w)
			}
		}
	}
	ge, gc, gOpen := p.j.Progress()
	we, wc, wo := p.ref.progress()
	if ge != we || gc != wc || gOpen != wo {
		p.t.Fatalf("Progress (%d, %d, %d), oracle (%d, %d, %d)", ge, gc, gOpen, we, wc, wo)
	}
	if sealed, _ := p.j.Sealed(); sealed != p.ref.sealed {
		p.t.Fatalf("sealed %t, oracle %t", sealed, p.ref.sealed)
	}
	if !p.ref.sealed {
		return
	}
	got, err1 := p.j.BuildArchive()
	want, err2 := p.ref.buildArchive()
	p.sameErr("BuildArchive", err1, err2)
	if err1 != nil {
		return
	}
	gb, err1 := archive.AppendRecord(nil, []byte(`{}`), got, 1)
	wb, err2 := archive.AppendRecord(nil, []byte(`{}`), want, 1)
	if err1 != nil || err2 != nil || !bytes.Equal(gb, wb) {
		p.t.Fatalf("BuildArchive bytes differ (%v, %v): %d vs %d bytes", err1, err2, len(gb), len(wb))
	}
}

// liveGen draws a random well-formed job: a tree of operations whose
// children end before their parents, infos, and env samples over a few
// series with runs of bit-identical times, -0 times and used values,
// and (for ingest) env events that carry stray operation fields: those
// go to stray, and the job gets each without them.
type liveGen struct {
	rng    *rand.Rand
	time   float64
	nextOp int
	open   []string       // started, not ended
	kids   map[string]int // open children per open operation
	parent map[string]string
	series int
	stray  []Event
}

func newLiveGen(seed int64) *liveGen {
	return &liveGen{rng: rand.New(rand.NewSource(seed)), kids: map[string]int{}, parent: map[string]string{}}
}

// record returns the next operation record, ok false once the root has
// ended.
func (g *liveGen) record() (trace.Record, bool) {
	if g.nextOp > 0 && len(g.open) == 0 {
		return trace.Record{}, false
	}
	if g.rng.Intn(4) == 0 {
		g.time += float64(g.rng.Intn(3))
	}
	if g.nextOp == 0 {
		return g.start(""), true
	}
	switch r := g.rng.Intn(10); {
	case (r < 4 || len(g.open) == 1) && g.nextOp < 80: // the root ends last
		return g.start(g.open[g.rng.Intn(len(g.open))]), true
	case r < 6:
		op := g.open[g.rng.Intn(len(g.open))]
		return trace.Record{Time: g.time, Op: op, Event: trace.EventInfo, Key: "K" + strconv.Itoa(g.rng.Intn(3)), Value: strconv.Itoa(g.rng.Intn(100))}, true
	}
	return g.end(), true
}

// end ends the newest open operation with no open children; one always
// exists while any is open.
func (g *liveGen) end() trace.Record {
	for i := len(g.open) - 1; i >= 0; i-- {
		if op := g.open[i]; g.kids[op] == 0 {
			g.open = append(g.open[:i], g.open[i+1:]...)
			g.kids[g.parent[op]]--
			return trace.Record{Time: g.time, Op: op, Event: trace.EventEnd}
		}
	}
	panic("no leaf among the open operations")
}

func (g *liveGen) start(parent string) trace.Record {
	g.nextOp++
	op := "op-" + strconv.Itoa(g.nextOp)
	g.open = append(g.open, op)
	g.parent[op] = parent
	mission := "Job"
	if parent != "" {
		g.kids[parent]++
		mission = []string{"Load", "Step", "Store"}[g.rng.Intn(3)]
	}
	return trace.Record{Time: g.time, Op: op, Parent: parent, Actor: "W-" + strconv.Itoa(g.rng.Intn(4)), Mission: mission, Event: trace.EventStart}
}

// sample returns the next env sample: series in round-robin order
// (what the monitor writes), now and then one out of turn, times in
// runs, some of them -0, and used values mostly whole.
func (g *liveGen) sample() envmon.Sample {
	k := g.series % 7
	g.series++
	if g.rng.Intn(10) == 0 {
		k = g.rng.Intn(7)
	}
	t := g.time
	switch g.rng.Intn(20) {
	case 0:
		t = math.Copysign(0, -1)
	case 1:
		t += 0.25
	}
	used := float64(g.rng.Intn(3))
	switch g.rng.Intn(6) {
	case 0:
		used = g.rng.Float64() * 4
	case 1:
		used = math.Copysign(0, -1)
	}
	return envmon.Sample{Time: t, Node: "node-" + strconv.Itoa(k%3), Kind: []string{"cpu", "", "nic", "disk"}[k%4], Used: used}
}

// events draws a whole external job of about n events, its tree
// complete (an ingested seal needs one, whatever its state), seal last.
func (g *liveGen) events(n int, state string) []Event {
	var out []Event
	add := func(e Event) {
		e.Seq = uint64(len(out) + 1)
		out = append(out, e)
	}
	record := func(r trace.Record) {
		add(Event{Type: string(r.Event), Time: r.Time, Op: r.Op, Parent: r.Parent, Actor: r.Actor, Mission: r.Mission, Key: r.Key, Value: r.Value})
	}
	for len(out) < n {
		if g.rng.Intn(3) == 0 {
			s := g.sample()
			e := Event{Type: typeEnv, Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used}
			if g.rng.Intn(25) == 0 {
				odd := e
				odd.Seq = uint64(len(out) + 1)
				odd.Op, odd.Actor, odd.Value = "stray", "someone", "x"
				g.stray = append(g.stray, odd)
			}
			add(e)
			continue
		}
		r, ok := g.record()
		if !ok {
			break
		}
		record(r)
	}
	for len(g.open) > 0 {
		record(g.end())
	}
	add(Event{Type: TypeSeal, Time: g.time, Platform: "Giraph", Algorithm: "BFS", State: state})
	return out
}

// TestLiveLogMatchesEventSlice drives Job and the []Event log it
// replaced with the same seeded random input and holds them equal:
// EventsAfter at every cursor, the stream-batch payload and the /watch
// frames of each window, Progress, and the sealed archive's bytes.
func TestLiveLogMatchesEventSlice(t *testing.T) {
	t.Run("ingest", func(t *testing.T) {
		strays := 0
		defer func() {
			if strays == 0 {
				t.Error("no env event with operation fields was drawn")
			}
		}()
		for seed := int64(1); seed <= 12; seed++ {
			g := newLiveGen(seed)
			state := StateDone
			if seed%3 == 0 {
				state = StateFailed
			}
			events := g.events(300+g.rng.Intn(300), state)
			// An env event with operation fields is refused before it
			// reaches either log.
			strays += len(g.stray)
			for _, e := range g.stray {
				if err := e.validate(); err == nil {
					t.Fatalf("seed %d: env event %d with operation fields validates", seed, e.Seq)
				}
			}
			maxEvents := 0
			if seed == 5 {
				maxEvents = len(events) - 3 // the last events overflow
			}
			id := "ingest-" + strconv.FormatInt(seed, 10)
			m := NewManager(Config{MaxEventsPerJob: maxEvents})
			p := &logPair{t: t, ref: newRefJob(id)}
			for next, batches := 0, 0; next < len(events); batches++ {
				if batches == 10_000 {
					t.Fatalf("seed %d: the job is not in after %d batches", seed, batches)
				}
				from := next
				switch r := g.rng.Intn(10); {
				case r < 3 && next > 0:
					from = max(0, next-1-g.rng.Intn(12)) // replays an acked prefix
				case r == 3:
					from = min(next+1, len(events)-1) // leaves a gap
				}
				size := 1 + g.rng.Intn(40)
				if maxEvents > 0 {
					size = 1 // fills the job to exactly maxEvents
				}
				batch := events[from:min(len(events), from+size)]
				if next == 0 {
					batch = events[:max(1, len(batch))]
				}
				got, err1 := m.Ingest(id, batch)
				want, err2 := p.ref.ingest(batch, m.cfg.MaxEventsPerJob)
				p.sameErr(fmt.Sprintf("seed %d: batch %d-%d", seed, batch[0].Seq, batch[len(batch)-1].Seq), err1, err2)
				if got.Accepted != want.Accepted || got.Duplicates != want.Duplicates || got.LastSeq != want.LastSeq ||
					got.Sealed != want.Sealed || !sameEvents(got.NewEvents, want.NewEvents) {
					t.Fatalf("seed %d: result %+v, oracle %+v", seed, got, want)
				}
				if p.j == nil {
					p.j, _ = m.Get(id)
				}
				if err1 == ErrOverflow {
					break
				}
				next = int(want.LastSeq)
				last := p.ref.lastSeq
				p.check(false, max(last, 1)-1, last, last+1, uint64(from))
			}
			last := p.ref.lastSeq
			p.check(true, 0, last/2, last)
		}
	})

	t.Run("publish", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			g := newLiveGen(100 + seed)
			id := "publish-" + strconv.FormatInt(seed, 10)
			j, err := NewManager(Config{}).OpenInternal(id)
			if err != nil {
				t.Fatal(err)
			}
			p := &logPair{t: t, j: j, ref: newRefJob(id)}
			done := seed%4 != 0
			for step := 0; ; step++ {
				switch r := g.rng.Intn(60); {
				case r == 0:
					bad := trace.Record{Time: g.time, Op: "unknown", Event: trace.EventEnd}
					p.sameErr("PublishRecord of an unknown end", j.PublishRecord(bad), p.ref.publishRecord(bad))
				case r < 40:
					s := g.sample()
					p.sameErr("PublishSample", j.PublishSample(s), p.ref.publishSample(s))
				default:
					r, ok := g.record()
					if !ok || (!done && step > 600) {
						break
					}
					p.sameErr("PublishRecord", j.PublishRecord(r), p.ref.publishRecord(r))
					continue
				}
				if len(g.open) == 0 && g.nextOp > 0 || !done && step > 600 {
					break
				}
				if step%50 == 0 {
					last := p.ref.lastSeq
					p.check(false, max(last, 1)-1, last)
				}
			}
			state := StateFailed
			if done {
				state = StateDone
			}
			p.sameErr("Seal", j.Seal("PowerGraph", "PageRank", state, g.time), p.ref.seal("PowerGraph", "PageRank", state, g.time))
			s := g.sample()
			p.sameErr("PublishSample after the seal", j.PublishSample(s), p.ref.publishSample(s))
			last := p.ref.lastSeq
			p.check(true, 0, last/2, last)
		}
	})

	// More series than a 16-bit index holds: the columns widen it to 32
	// bits part way through the job.
	t.Run("65537+ series", func(t *testing.T) {
		const series = 70_000
		j, err := NewManager(Config{}).OpenInternal("wide")
		if err != nil {
			t.Fatal(err)
		}
		p := &logPair{t: t, j: j, ref: newRefJob("wide")}
		root := trace.Record{Op: "root", Actor: "Client", Mission: "Job", Event: trace.EventStart}
		p.sameErr("PublishRecord", j.PublishRecord(root), p.ref.publishRecord(root))
		for i := range series {
			s := envmon.Sample{Time: float64(i / 1000), Node: "n" + strconv.Itoa(i), Kind: "cpu", Used: float64(i % 5)}
			p.sameErr("PublishSample", j.PublishSample(s), p.ref.publishSample(s))
			if i == 1<<16 {
				end := trace.Record{Time: float64(i / 1000), Op: "root", Event: trace.EventEnd}
				p.sameErr("PublishRecord", j.PublishRecord(end), p.ref.publishRecord(end))
			}
		}
		p.sameErr("Seal", j.Seal("P", "A", StateDone, 70), p.ref.seal("P", "A", StateDone, 70))
		p.check(false, 1<<16-1, 1<<16, 1<<16+1, 1<<16+2, 1<<16+3, series-1, series, series+1, series+2, series+3)
	})
}
