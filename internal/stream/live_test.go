package stream

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/envmon"
	"repro/internal/query"
	"repro/internal/trace"
)

// liveJobEvents builds a job whose 300 children end in a shuffled order,
// some with an info event after their end, and returns its events (seal
// last) and the IDs of its operations in completion order.
func liveJobEvents() ([]Event, []string) {
	rng := rand.New(rand.NewSource(5))
	var events []Event
	var ends []string
	add := func(e Event) {
		e.Seq = uint64(len(events) + 1)
		e.Time = float64(len(events))
		events = append(events, e)
	}
	end := func(op string) {
		add(Event{Type: typeEnd, Op: op})
		ends = append(ends, op)
		if rng.Intn(4) == 0 {
			add(Event{Type: typeInfo, Op: op, Key: "Late", Value: op})
		}
	}
	add(Event{Type: typeStart, Op: "root", Actor: "Client", Mission: "Job"})
	var open []string
	for i := 0; i < 300; i++ {
		op := fmt.Sprintf("op-%d", i)
		add(Event{Type: typeStart, Op: op, Parent: "root", Actor: fmt.Sprintf("W-%d", i%4), Mission: "Step"})
		open = append(open, op)
		for len(open) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(open))
			end(open[k])
			open = append(open[:k], open[k+1:]...)
		}
	}
	rng.Shuffle(len(open), func(i, k int) { open[i], open[k] = open[k], open[i] })
	for _, op := range open {
		end(op)
	}
	end("root")
	add(Event{Type: TypeSeal, Platform: "p", State: StateDone})
	return events, ends
}

// infoValue returns row r's recorded info key in f.
func infoValue(f *query.Frame, r int, key string) (string, bool) {
	infos, _ := f.RowKV(r)
	for i := range infos.Len() {
		if k, v := infos.At(i); k == key {
			return v, true
		}
	}
	return "", false
}

// rowIDs returns the operation IDs of cols' rows, in row order.
func rowIDs(cols *query.Columns) []string {
	f := cols.Frame(query.JobMeta{})
	ids := make([]string, len(f.ID))
	for r, s := range f.ID {
		ids[r] = f.Syms[s]
	}
	return ids
}

// TestStreamLiveQueryDuringIngest reads a job's live columns while its
// events are ingested (run under -race): every answer is a prefix of the
// job's completion order and never holds more rows than the job had
// ended operations, and once the job is in, the columns hold every
// operation in completion order with the infos that came after its end.
func TestStreamLiveQueryDuringIngest(t *testing.T) {
	events, ends := liveJobEvents()
	m := NewManager(Config{})
	if _, err := m.Ingest("live", events[:1]); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get("live")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, _ := query.Parse(`mission = Step order by duration desc limit 5`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				cols := j.Columns()
				_, ended, _ := j.Progress()
				ids := rowIDs(cols)
				if len(ids) > ended {
					t.Errorf("columns hold %d rows, only %d operations had ended", len(ids), ended)
					return
				}
				for i, id := range ids {
					if id != ends[i] {
						t.Errorf("row %d is %s, completion order says %s", i, id, ends[i])
						return
					}
				}
				_ = q.SelectColumns(cols)
			}
		}()
	}
	for i := 1; i < len(events); i += 16 {
		if _, err := m.Ingest("live", events[i:min(i+16, len(events))]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	cols := j.Columns()
	if got := rowIDs(cols); fmt.Sprint(got) != fmt.Sprint(ends) {
		t.Fatalf("final rows %v, completion order %v", got, ends)
	}
	f := cols.Frame(query.JobMeta{})
	late := 0
	for r := range ends {
		if v, ok := infoValue(f, r, "Late"); ok {
			if v != ends[r] {
				t.Fatalf("row %d has Late=%s", r, v)
			}
			late++
		}
	}
	want := 0
	for _, e := range events {
		if e.Type == typeInfo {
			want++
		}
	}
	if late != want {
		t.Fatalf("%d rows show their late info, %d infos were ingested", late, want)
	}
}

// TestStreamPublishAllocs pins the allocations of publishing one end
// record, and one environment sample, to a live in-process job at zero:
// the event log, the sample columns and the assembler take them with
// nothing but their amortized growth.
func TestStreamPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const runs = 200
	m := NewManager(Config{})
	j, err := m.OpenInternal("allocs")
	if err != nil {
		t.Fatal(err)
	}
	publish := func(r trace.Record) {
		if err := j.PublishRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	publish(trace.Record{Event: trace.EventStart, Op: "root", Actor: "Client", Mission: "Job"})
	ops := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	for i := range ops {
		ops[i] = fmt.Sprintf("op-%d", i)
		publish(trace.Record{Time: float64(i), Event: trace.EventStart, Op: ops[i], Parent: "root", Actor: "Worker", Mission: "Step"})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		publish(trace.Record{Time: float64(runs + next), Event: trace.EventEnd, Op: ops[next]})
		next++
	})
	if allocs != 0 {
		t.Fatalf("publishing one end record allocates %v times, want 0", allocs)
	}

	samples := liveSamples(25*runs + runs + 1) // AllocsPerRun adds a warm-up call
	// The steady state: every series known.
	for _, s := range samples[:25*runs] {
		if err := j.PublishSample(s); err != nil {
			t.Fatal(err)
		}
	}
	next = 25 * runs
	allocs = testing.AllocsPerRun(runs, func() {
		if err := j.PublishSample(samples[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("publishing one environment sample allocates %v times, want 0", allocs)
	}
}

// liveSamples returns n samples as the monitor writes them: 25 series
// (five nodes, five resource kinds) named in the same order at each
// whole-second timestamp, most of them reading a whole number.
func liveSamples(n int) []envmon.Sample {
	kinds := []string{"cpu", "mem", "disk", "nic", "gpu"}
	samples := make([]envmon.Sample, n)
	for i := range samples {
		k := i % 25
		samples[i] = envmon.Sample{Time: float64(i / 25), Node: "node-" + strconv.Itoa(k/5), Kind: kinds[k%5], Used: float64(i % 4)}
		if i%10 == 0 {
			samples[i].Used = 0.37
		}
	}
	return samples
}

// TestLiveEnvBytes gates what a live job's log holds per environment
// sample: 100,000 samples over 25 series published into a live job cost
// at most 40 heap bytes each. The heap is read after two collections, so
// that sync.Pool's victim cache holds nothing at either reading.
func TestLiveEnvBytes(t *testing.T) {
	const n, ceiling = 100_000, 40
	samples := liveSamples(n)
	j, err := NewManager(Config{}).OpenInternal("env-bytes")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range samples {
		if err := j.PublishSample(s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(j)
	runtime.KeepAlive(samples)
	perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%d samples: %.1f heap bytes per sample (ceiling %d)", n, perSample, ceiling)
	if perSample > ceiling {
		t.Fatalf("a live job holds %.1f bytes per environment sample, ceiling %d", perSample, ceiling)
	}
}
