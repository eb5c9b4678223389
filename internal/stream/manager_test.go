package stream

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/datagen"
	"repro/internal/envmon"
	"repro/internal/platforms"
	"repro/internal/query"
	"repro/internal/trace"
)

// simpleJobEvents builds a well-formed event stream for a tiny job:
// root with two sequential children, one info, env samples, seal.
func simpleJobEvents() []Event {
	return []Event{
		{Seq: 1, Type: typeStart, Time: 0, Op: "op-1", Actor: "Client", Mission: "Job"},
		{Seq: 2, Type: typeStart, Time: 1, Op: "op-2", Parent: "op-1", Actor: "Worker-0", Mission: "Load"},
		{Seq: 3, Type: typeInfo, Time: 1.5, Op: "op-2", Key: "Bytes", Value: "1000"},
		{Seq: 4, Type: typeEnd, Time: 2, Op: "op-2"},
		{Seq: 5, Type: typeEnv, Time: 2, Node: "node-0", Kind: "cpu", Used: 1.5},
		{Seq: 6, Type: typeStart, Time: 2, Op: "op-3", Parent: "op-1", Actor: "Worker-1", Mission: "Compute"},
		{Seq: 7, Type: typeEnd, Time: 5, Op: "op-3"},
		{Seq: 8, Type: typeEnd, Time: 6, Op: "op-1"},
		{Seq: 9, Type: TypeSeal, Time: 6, Platform: "Giraph", Algorithm: "BFS", State: StateDone},
	}
}

func TestIngestHappyPathAndIdempotentReplay(t *testing.T) {
	m := NewManager(Config{})
	events := simpleJobEvents()

	res, err := m.Ingest("j1", events[:4])
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 4 || res.Duplicates != 0 || res.LastSeq != 4 || res.Sealed {
		t.Fatalf("bad result: %+v", res)
	}

	// Replay the same batch plus the rest: the prefix is skipped.
	res, err = m.Ingest("j1", events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 5 || res.Duplicates != 4 || res.LastSeq != 9 || !res.Sealed {
		t.Fatalf("bad replay result: %+v", res)
	}

	j, ok := m.Get("j1")
	if !ok {
		t.Fatal("job not live")
	}
	if sealed, state := j.Sealed(); !sealed || state != StateDone {
		t.Fatalf("sealed=%v state=%q", sealed, state)
	}
	if ev, comp, open := j.Progress(); ev != 9 || comp != 3 || open != 0 {
		t.Fatalf("progress: events=%d completed=%d open=%d", ev, comp, open)
	}

	// Full replay after seal is still idempotent (all duplicates).
	res, err = m.Ingest("j1", events)
	if err != nil || res.Accepted != 0 || res.Duplicates != 9 {
		t.Fatalf("post-seal replay: res=%+v err=%v", res, err)
	}
}

func TestIngestGapRejected(t *testing.T) {
	m := NewManager(Config{})
	events := simpleJobEvents()
	if _, err := m.Ingest("j1", events[:2]); err != nil {
		t.Fatal(err)
	}
	_, err := m.Ingest("j1", events[3:5]) // skips seq 3
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("want GapError, got %v", err)
	}
	if gap.Expected != 3 || gap.Got != 4 {
		t.Fatalf("gap: %+v", gap)
	}
	// State untouched: the valid continuation still applies.
	if _, err := m.Ingest("j1", events[2:]); err != nil {
		t.Fatal(err)
	}
}

func TestIngestBatchIsAtomic(t *testing.T) {
	m := NewManager(Config{})
	events := simpleJobEvents()
	if _, err := m.Ingest("j1", events[:4]); err != nil {
		t.Fatal(err)
	}
	// A batch that is sequence-contiguous but tree-invalid late in the
	// batch (duplicate end for op-2) must be rejected without applying
	// its valid prefix.
	bad := []Event{
		events[4],
		{Seq: 6, Type: typeEnd, Time: 3, Op: "op-2"},
	}
	if _, err := m.Ingest("j1", bad); err == nil || !strings.Contains(err.Error(), "duplicate end") {
		t.Fatalf("want duplicate-end rejection, got %v", err)
	}
	j, _ := m.Get("j1")
	if j.LastSeq() != 4 {
		t.Fatalf("partial apply: lastSeq=%d, want 4", j.LastSeq())
	}
	// The correct continuation still fits.
	if _, err := m.Ingest("j1", events[4:]); err != nil {
		t.Fatal(err)
	}
}

func TestIngestBackpressure(t *testing.T) {
	m := NewManager(Config{MaxEventsPerJob: 4, MaxLiveJobs: 1})
	events := simpleJobEvents()
	if _, err := m.Ingest("j1", events[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("j1", events[4:6]); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	if _, err := m.Ingest("j2", events[:1]); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("want ErrTooManyJobs, got %v", err)
	}
	// The rejected second job must not leak a live slot.
	if got := m.Live(); got != 1 {
		t.Fatalf("live jobs: %d, want 1", got)
	}
}

func TestIngestRejectsInvalidTreeShapes(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
		want string
	}{
		{"duplicate start", []Event{
			{Seq: 1, Type: typeStart, Time: 0, Op: "a", Mission: "Job"},
			{Seq: 2, Type: typeStart, Time: 0, Op: "a", Parent: "a", Mission: "X"},
		}, "duplicate start"},
		{"end before start", []Event{
			{Seq: 1, Type: typeEnd, Time: 0, Op: "a"},
		}, "end before start"},
		{"info before start", []Event{
			{Seq: 1, Type: typeInfo, Time: 0, Op: "a", Key: "k"},
		}, "info before start"},
		{"unknown parent", []Event{
			{Seq: 1, Type: typeStart, Time: 0, Op: "a", Parent: "nope", Mission: "X"},
		}, "unknown parent"},
		{"second root", []Event{
			{Seq: 1, Type: typeStart, Time: 0, Op: "a", Mission: "Job"},
			{Seq: 2, Type: typeStart, Time: 0, Op: "b", Mission: "Job"},
		}, "multiple root"},
		{"seal with open ops", []Event{
			{Seq: 1, Type: typeStart, Time: 0, Op: "a", Mission: "Job"},
			{Seq: 2, Type: TypeSeal, Time: 1, Platform: "Giraph", State: StateDone},
		}, "still open"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(Config{})
			_, err := m.Ingest("j", tc.evs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
}

func TestEventsAfterAndSubscribe(t *testing.T) {
	m := NewManager(Config{})
	events := simpleJobEvents()
	if _, err := m.Ingest("j1", events[:4]); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get("j1")
	ch := j.Subscribe()
	defer j.Unsubscribe(ch)

	got := j.EventsAfter(2)
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("EventsAfter(2): %+v", got)
	}
	if j.EventsAfter(9) != nil {
		t.Fatal("EventsAfter past the end should be nil")
	}

	if _, err := m.Ingest("j1", events[4:]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("subscriber not notified")
	}
	if got := j.EventsAfter(4); len(got) != 5 {
		t.Fatalf("EventsAfter(4) after second batch: %d events", len(got))
	}
}

func TestLiveQueryOverPartialJob(t *testing.T) {
	m := NewManager(Config{})
	events := simpleJobEvents()
	// Ingest through op-2's completion only: one completed op.
	if _, err := m.Ingest("j1", events[:5]); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get("j1")

	q, err := query.Parse(`mission = Load`)
	if err != nil {
		t.Fatal(err)
	}
	got := q.SelectColumns(j.Columns())
	if len(got) != 1 || got[0].ID != "op-2" {
		t.Fatalf("live query: %+v", got)
	}
	lookup := func(field, value string) []*archive.Operation {
		return query.Exact(field, value).SelectColumns(j.Columns())
	}
	if ops := lookup("mission", "Load"); len(ops) != 1 || ops[0].Infos["Bytes"] != "1000" {
		t.Fatalf("mission lookup: %+v", ops)
	}
	if ops := lookup("actor", "Worker-0"); len(ops) != 1 {
		t.Fatalf("actor lookup: %+v", ops)
	}
	if ops := lookup("path", "Job/Load"); len(ops) != 1 {
		t.Fatalf("path lookup: %+v", ops)
	}
	// The still-open root is invisible to the live columns.
	if ops := lookup("mission", "Job"); len(ops) != 0 {
		t.Fatalf("open op leaked into live columns: %+v", ops)
	}
}

// streamedArchiveBytes runs a platform job batch-mode while capturing
// its records and samples through the live sinks, replays the capture
// as an external event stream into a fresh Manager, seals it, and
// returns both serializations.
func streamedArchiveBytes(t *testing.T, platform, algorithm string) (batch, streamed []byte) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 1500, Edges: 8000, Seed: 21, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := platforms.DAS5Config()
	cfg.Nodes = 4
	cfg.CoresPerNode = 8

	var mu sync.Mutex
	var events []Event
	seq := uint64(0)
	push := func(e Event) {
		mu.Lock()
		seq++
		e.Seq = seq
		events = append(events, e)
		mu.Unlock()
	}
	out, err := platforms.Run(platforms.Spec{
		Platform:  platform,
		Algorithm: algorithm,
		Dataset:   ds,
		Cluster:   cfg,
		WorkScale: 1, Iterations: 3, HostParallelism: 1,
		RecordSink: func(r trace.Record) {
			push(Event{Type: string(r.Event), Time: r.Time, Op: r.Op, Parent: r.Parent,
				Actor: r.Actor, Mission: r.Mission, Key: r.Key, Value: r.Value})
		},
		SampleSink: func(s envmon.Sample) {
			push(Event{Type: typeEnv, Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	push(Event{Type: TypeSeal, Time: out.Runtime, Platform: platform, Algorithm: algorithm, State: StateDone})

	m := NewManager(Config{MaxEventsPerJob: len(events) + 1})
	jobID := out.Job.ID
	// Replay in client-sized batches, duplicating one mid-stream batch to
	// exercise idempotent replay on the equivalence path too.
	const batchSize = 64
	for i := 0; i < len(events); i += batchSize {
		end := i + batchSize
		if end > len(events) {
			end = len(events)
		}
		if _, err := m.Ingest(jobID, events[i:end]); err != nil {
			t.Fatalf("ingest batch at %d: %v", i, err)
		}
		if i == batchSize {
			if _, err := m.Ingest(jobID, events[i:end]); err != nil {
				t.Fatalf("replay batch at %d: %v", i, err)
			}
		}
	}
	j, ok := m.Get(jobID)
	if !ok {
		t.Fatal("job not live")
	}
	sealedJob, err := j.BuildArchive()
	if err != nil {
		t.Fatal(err)
	}

	marshal := func(job *archive.Job) []byte {
		a := archive.New()
		a.Add(job)
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return marshal(out.Job), marshal(sealedJob)
}

// TestSealEquivalenceArchiveBytes is the tentpole oracle at the stream
// layer: a job streamed event-by-event and sealed must serialize to
// exactly the bytes the batch pipeline produces, and its sealed columns
// must be identical to a from-scratch BuildColumns.
func TestSealEquivalenceArchiveBytes(t *testing.T) {
	for _, tc := range []struct{ platform, algorithm string }{
		{"Giraph", "BFS"},
		{"PowerGraph", "PageRank"},
	} {
		t.Run(tc.platform+"/"+tc.algorithm, func(t *testing.T) {
			batch, streamed := streamedArchiveBytes(t, tc.platform, tc.algorithm)
			if !bytes.Equal(batch, streamed) {
				t.Fatalf("streamed archive differs from batch: %d vs %d bytes (first diff at %d)",
					len(streamed), len(batch), firstDiff(streamed, batch))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestEncodeDecodeEventsRoundTrip(t *testing.T) {
	events := simpleJobEvents()
	b, err := EncodeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvents(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeEventsRejectsMalformed(t *testing.T) {
	bad := []string{
		`{"seq":0,"type":"start","op":"a"}`,              // seq 0
		`{"seq":1,"type":"bogus"}`,                       // unknown type
		`{"seq":1,"type":"start"}`,                       // missing op
		`{"seq":1,"type":"info","op":"a"}`,               // missing key
		`{"seq":1,"type":"env","node":"n"}`,              // missing kind
		`{"seq":1,"type":"seal","platform":"p"}`,         // missing state
		`{"seq":1,"type":"seal","state":"done"}`,         // missing platform
		`{"seq":1,"type":"start","op":"a","bogus":true}`, // unknown field
		`{"seq":1,"type":"start","op":"a"} trailing`,     // trailing data
		`not json at all`,
		`{"seq":1,"type":"start","op":"a","time":-5}`, // negative time
	}
	for _, line := range bad {
		if _, err := DecodeEvents(strings.NewReader(line)); err == nil {
			t.Errorf("decode accepted %q", line)
		}
	}
}

func TestWindowAggregation(t *testing.T) {
	agg := NewWindowAgg(2.0)
	var closed []Window
	for _, e := range simpleJobEvents() {
		closed = append(closed, agg.Feed(e)...)
	}
	tail := agg.Flush()
	if tail != nil {
		closed = append(closed, *tail)
	}
	if len(closed) != 4 {
		t.Fatalf("windows: %d, want 4 (%+v)", len(closed), closed)
	}
	// Window 0 covers [0,2): root + Load start there; Load's end lands
	// at t=2 in window 1.
	w0 := closed[0]
	if w0.Index != 0 || w0.Started != 2 || w0.Completed != 0 {
		t.Fatalf("w0: %+v", w0)
	}
	w1 := closed[1]
	if w1.Index != 1 || w1.Started != 1 || w1.Completed != 1 || w1.Phases["Load"] != 1.0 {
		t.Fatalf("w1: %+v", w1)
	}
	w2 := closed[2]
	if w2.Index != 2 || w2.Completed != 1 || w2.Phases["Compute"] != 3.0 {
		t.Fatalf("w2: %+v", w2)
	}
	w3 := closed[3]
	if w3.Index != 3 || w3.Completed != 1 || w3.Phases["Job"] != 6.0 {
		t.Fatalf("w3: %+v", w3)
	}
	// Resumability: each closed window's LastSeq points at the last
	// event folded into it.
	if w0.LastSeq != 3 || w1.LastSeq != 6 || w2.LastSeq != 7 || w3.LastSeq != 9 {
		t.Fatalf("window LastSeqs: %d %d %d %d", w0.LastSeq, w1.LastSeq, w2.LastSeq, w3.LastSeq)
	}
}

func TestInternalPublishAndSeal(t *testing.T) {
	m := NewManager(Config{})
	j, err := m.OpenInternal("int-1")
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{Time: 0, Job: "int-1", Op: "op-1", Actor: "Client", Mission: "Job", Event: trace.EventStart},
		{Time: 1, Job: "int-1", Op: "op-2", Parent: "op-1", Actor: "W", Mission: "Load", Event: trace.EventStart},
		{Time: 2, Job: "int-1", Op: "op-2", Event: trace.EventEnd},
		{Time: 3, Job: "int-1", Op: "op-1", Event: trace.EventEnd},
	}
	for _, r := range recs {
		if err := j.PublishRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.PublishSample(envmon.Sample{Time: 1, Node: "n0", Kind: "cpu", Used: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Seal("Giraph", "BFS", StateDone, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.Seal("Giraph", "BFS", StateDone, 3); !errors.Is(err, ErrSealed) {
		t.Fatalf("double seal: %v", err)
	}
	if j.LastSeq() != 6 {
		t.Fatalf("lastSeq=%d, want 6", j.LastSeq())
	}
	job, err := j.BuildArchive()
	if err != nil {
		t.Fatal(err)
	}
	if job.Root == nil || job.Root.ID != "op-1" || len(job.EnvSamples) != 1 {
		t.Fatalf("assembled job: %+v", job)
	}
	// A failed run can seal with operations still open.
	j2, err := m.OpenInternal("int-2")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.PublishRecord(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := j2.Seal("Giraph", "BFS", StateFailed, 1); err != nil {
		t.Fatalf("failed-state seal: %v", err)
	}
}

func TestConcurrentIngestAndTail(t *testing.T) {
	// Many writers racing batches (only contiguous ones land), readers
	// tailing and querying concurrently — run under -race.
	m := NewManager(Config{})
	var events []Event
	for i := 0; i < 400; i++ {
		op := fmt.Sprintf("op-%d", i+1)
		parent := ""
		mission := "Job"
		if i > 0 {
			parent = "op-1"
			mission = "Step"
		}
		events = append(events,
			Event{Seq: uint64(2*i + 1), Type: typeStart, Time: float64(i), Op: op, Parent: parent, Actor: "W", Mission: mission})
		if i > 0 {
			events = append(events,
				Event{Seq: uint64(2*i + 2), Type: typeEnd, Time: float64(i) + 0.5, Op: op})
		} else {
			events = append(events,
				Event{Seq: uint64(2*i + 2), Type: typeInfo, Time: float64(i), Op: op, Key: "k", Value: "v"})
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, _ := query.Parse(`mission = Step`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if j, ok := m.Get("race"); ok {
					_ = j.EventsAfter(0)
					_ = q.SelectColumns(j.Columns())
					_ = query.Exact("actor", "W").SelectColumns(j.Columns())
				}
			}
		}()
	}
	// Two writers race identical batch sequences; duplicates are skipped.
	var ww sync.WaitGroup
	for w := 0; w < 2; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < len(events); i += 20 {
				end := i + 20
				if end > len(events) {
					end = len(events)
				}
				for {
					_, err := m.Ingest("race", events[:end])
					if err == nil {
						break
					}
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	j, _ := m.Get("race")
	if j.LastSeq() != uint64(len(events)) {
		t.Fatalf("lastSeq=%d, want %d", j.LastSeq(), len(events))
	}
}
