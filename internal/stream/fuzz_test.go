package stream

import (
	"bytes"
	"testing"

	"repro/internal/archive"
	"repro/internal/envmon"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// FuzzIngestEvent drives the full external ingest path — JSON-lines
// decode, per-event validation, sequence check, and tree apply — with
// arbitrary bodies. Invariants: no panics; whatever decodes cleanly
// either ingests or fails without mutating job state; accepted events
// are dense from 1 and re-encode/re-decode to themselves; replaying an
// accepted body is always a no-op success; a body that seals done
// builds the archive the batch path builds from the same records, and
// builds it again to the same bytes.
func FuzzIngestEvent(f *testing.F) {
	if seed, err := EncodeEvents(simpleJobEvents()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"seq":1,"type":"start","op":"a","mission":"Job","actor":"c","time":0}`))
	f.Add([]byte(`{"seq":1,"type":"start","op":"a"}` + "\n" + `{"seq":3,"type":"end","op":"a"}`))
	f.Add([]byte(`{"seq":1,"type":"env","node":"n","kind":"cpu","used":1e300}`))
	f.Add([]byte(`{"seq":1,"type":"seal","platform":"p","state":"done"}`))
	f.Add([]byte("not json\n\n{\"seq\":2}"))
	f.Add([]byte(`{"seq":18446744073709551615,"type":"end","op":"x"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		events, err := DecodeEvents(bytes.NewReader(body))
		if err != nil {
			return
		}
		for i := range events {
			if verr := events[i].validate(); verr != nil {
				t.Fatalf("DecodeEvents returned invalid event %d: %v", i, verr)
			}
		}
		// Round-trip: encode must re-decode to the same events.
		enc, err := EncodeEvents(events)
		if err != nil {
			t.Fatalf("encode decoded events: %v", err)
		}
		back, err := DecodeEvents(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode encoded events: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip changed count: %d vs %d", len(back), len(events))
		}
		for i := range back {
			if back[i] != events[i] {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, back[i], events[i])
			}
		}

		m := NewManager(Config{MaxEventsPerJob: 1 << 12})
		res, err := m.Ingest("fuzz", events)
		if err != nil {
			// A rejected first batch must not leave live state behind.
			if res.LastSeq == 0 && m.Live() != 0 {
				t.Fatalf("failed first batch leaked a live job")
			}
			return
		}
		j, ok := m.Get("fuzz")
		if len(events) == 0 {
			if ok {
				t.Fatal("empty batch created a live job")
			}
			return
		}
		if !ok {
			t.Fatal("accepted batch has no live job")
		}
		// Accepted events are dense from 1.
		got := j.EventsAfter(0)
		if len(got) != res.Accepted {
			t.Fatalf("accepted %d but buffered %d", res.Accepted, len(got))
		}
		for i := range got {
			if got[i].Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d", i, got[i].Seq)
			}
		}
		if sealed, state := j.Sealed(); sealed && state == StateDone {
			checkSealedArchive(t, j, events)
		}
		// Idempotent replay of the same body.
		res2, err := m.Ingest("fuzz", events)
		if err != nil {
			t.Fatalf("replay of accepted batch failed: %v", err)
		}
		if res2.Accepted != 0 || res2.LastSeq != res.LastSeq {
			t.Fatalf("replay was not a no-op: %+v vs %+v", res2, res)
		}
	})
}

// checkSealedArchive compares a sealed job's BuildArchive with the
// batch path over the same records: monitor.Assemble, which
// FuzzAssemble holds to the assembler that predates the live tree byte
// for byte, then the same derivation. A second BuildArchive — a publish
// retried after a failed Put — must give the same bytes.
func checkSealedArchive(t *testing.T, j *Job, events []Event) {
	t.Helper()
	var recs []trace.Record
	var samples []envmon.Sample
	for i := range events {
		if r, ok := events[i].record(); ok {
			r.Job = j.id
			recs = append(recs, r)
		} else if events[i].Type == typeEnv {
			e := &events[i]
			samples = append(samples, envmon.Sample{Time: e.Time, Node: e.Node, Kind: e.Kind, Used: e.Used})
		}
	}
	want, wantErr := monitor.Assemble(j.id, events[len(events)-1].Platform, recs, samples)
	if wantErr == nil {
		metrics.StandardRules().Apply(want)
		metrics.AnnotateDomainBreakdown(want) //nolint:errcheck
		wantErr = want.Validate()
	}
	got, err := j.BuildArchive()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("BuildArchive: %v; batch path: %v", err, wantErr)
	}
	if err != nil {
		return
	}
	save := func(job *archive.Job) []byte {
		a := archive.New()
		a.Add(job)
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(got)
	if b := save(want); !bytes.Equal(first, b) {
		t.Fatalf("BuildArchive saves\n%s\nbatch path saves\n%s", first, b)
	}
	again, err := j.BuildArchive()
	if err != nil {
		t.Fatalf("second BuildArchive: %v", err)
	}
	if b := save(again); !bytes.Equal(first, b) {
		t.Fatalf("second BuildArchive saves\n%s\nfirst saved\n%s", b, first)
	}
}
