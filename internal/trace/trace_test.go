package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmitterProducesWellFormedRecords(t *testing.T) {
	log := NewLog()
	now := 0.0
	em := NewEmitter(log, "job-1", func() float64 { return now })
	root := em.Start(Root, "Client", "GiraphJob")
	now = 1
	child := em.Start(root, "Worker-1", "Compute")
	em.Info(child, "Vertices", "1000")
	now = 2
	em.End(child)
	now = 3
	em.End(root)

	recs := log.Records()
	if len(recs) != 5 {
		t.Fatalf("records = %d, want 5", len(recs))
	}
	if recs[0].Event != EventStart || recs[0].Parent != "" || recs[0].Mission != "GiraphJob" {
		t.Fatalf("root start record wrong: %+v", recs[0])
	}
	if recs[1].Parent != recs[0].Op {
		t.Fatalf("child parent = %q, want %q", recs[1].Parent, recs[0].Op)
	}
	if recs[2].Event != EventInfo || recs[2].Key != "Vertices" || recs[2].Value != "1000" {
		t.Fatalf("info record wrong: %+v", recs[2])
	}
	if recs[3].Event != EventEnd || recs[3].Time != 2 {
		t.Fatalf("end record wrong: %+v", recs[3])
	}
	if len(log.Records()) != 5 {
		t.Fatalf("records = %d", len(log.Records()))
	}
}

func TestEmitterDeterministicIDs(t *testing.T) {
	build := func() []string {
		log := NewLog()
		em := NewEmitter(log, "j", func() float64 { return 0 })
		a := em.Start(Root, "x", "A")
		b := em.Start(a, "x", "B")
		em.End(b)
		em.End(a)
		var ids []string
		for _, r := range log.Records() {
			ids = append(ids, r.Op)
		}
		return ids
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("operation IDs are not deterministic")
	}
}

func TestEndOrInfoOnInvalidRefPanics(t *testing.T) {
	log := NewLog()
	em := NewEmitter(log, "j", func() float64 { return 0 })
	for _, fn := range []func(){
		func() { em.End(Root) },
		func() { em.Info(Root, "k", "v") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	records := []Record{
		{Time: 0.5, Job: "j1", Op: "op-1", Event: EventStart, Actor: "Client", Mission: "Job"},
		{Time: 1.25, Job: "j1", Op: "op-2", Parent: "op-1", Event: EventStart, Actor: "Worker \"7\"", Mission: "Load Graph"},
		{Time: 1.5, Job: "j1", Op: "op-2", Event: EventInfo, Key: "Bytes", Value: "123\n456"},
		{Time: 2, Job: "j1", Op: "op-2", Event: EventEnd},
		{Time: 3, Job: "j1", Op: "op-1", Event: EventEnd},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, records); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, parsed) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", parsed, records)
	}
}

func TestParseIgnoresForeignLines(t *testing.T) {
	input := strings.Join([]string{
		"2026-07-04 12:00:00 INFO master started",
		`GRANULA t="1" job="j" op="op-1" event="start" parent="" actor="a" mission="m"`,
		"",
		"random noise",
		`GRANULA t="2" job="j" op="op-1" event="end"`,
	}, "\n")
	recs, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`GRANULA t="x" job="j" op="o" event="start"`,   // bad time
		`GRANULA t="1" job="j" op="o" event="bogus"`,   // bad event
		`GRANULA t="1" job="j" event="start"`,          // missing op
		`GRANULA t="1" job="j" op="o" event=start`,     // unquoted value
		`GRANULA t="1" job="j" op="o" event="start" x`, // malformed field
		`GRANULA t="1" zz="1" op="o" event="start"`,    // unknown field
		`GRANULA t="1" job="j" op="o" event="start" actor="unterminated`,
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
}

func TestNewEmitterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil log")
		}
	}()
	NewEmitter(nil, "j", func() float64 { return 0 })
}

// Property: any record content (including hostile strings) survives an
// encode/parse round trip.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randStr := func() string {
			n := rng.Intn(12)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(128))
			}
			return string(b)
		}
		n := 1 + rng.Intn(10)
		records := make([]Record, n)
		for i := range records {
			ev := []EventType{EventStart, EventEnd, EventInfo}[rng.Intn(3)]
			r := Record{
				Time:  float64(rng.Intn(1000)) / 7,
				Job:   randStr(),
				Op:    "op-" + randStr() + "x", // non-empty
				Event: ev,
			}
			switch ev {
			case EventStart:
				r.Parent = randStr()
				r.Actor = randStr()
				r.Mission = randStr()
			case EventInfo:
				r.Key = randStr()
				r.Value = randStr()
			}
			records[i] = r
		}
		var buf bytes.Buffer
		if err := Encode(&buf, records); err != nil {
			return false
		}
		parsed, err := Parse(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(records, parsed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
