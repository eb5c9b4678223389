package platforms

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// logRoundTrip is how a run assembled its job before its records went
// straight into an assembler: the platform log collected in a slice,
// written as text, parsed back and assembled in one batch. It is the
// oracle TestLiveAssemblyMatchesLogRoundTrip holds the live path to.
func logRoundTrip(jobID, platform string, records []trace.Record, samples []archive.EnvSample) (*archive.Job, error) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, records); err != nil {
		return nil, fmt.Errorf("platforms: encode platform log: %w", err)
	}
	parsed, err := trace.Parse(&buf)
	if err != nil {
		return nil, fmt.Errorf("platforms: parse platform log: %w", err)
	}
	return monitor.Assemble(jobID, platform, parsed, samples)
}

// saved is job's archive as archive.Save writes it, or Save's error.
func saved(job *archive.Job) string {
	a := archive.New()
	a.Add(job)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return "save: " + err.Error()
	}
	return buf.String()
}

// TestLiveAssemblyMatchesLogRoundTrip holds the harness's live assembly
// to the log round trip it replaced: every platform and algorithm the
// harness accepts, and seeded random emitter sequences with hostile
// strings and times, must give the same error or byte-equal archives.
func TestLiveAssemblyMatchesLogRoundTrip(t *testing.T) {
	t.Run("platforms", func(t *testing.T) {
		ds := smallDataset(t)
		for platform, algorithms := range map[string][]string{
			"Giraph":     {"BFS", "SSSP", "PageRank", "WCC", "CDLP"},
			"PowerGraph": {"BFS", "SSSP", "PageRank", "WCC"},
			"OpenG":      {"BFS", "SSSP", "PageRank", "WCC", "CDLP", "LCC"},
		} {
			for _, algorithm := range algorithms {
				var records []trace.Record
				var samples []archive.EnvSample
				out, err := Run(Spec{
					Platform: platform, Algorithm: algorithm, Dataset: ds,
					Cluster: smallCluster(), WorkScale: 1, Iterations: 3,
					RecordSink: func(r trace.Record) { records = append(records, r) },
					SampleSink: func(s archive.EnvSample) { samples = append(samples, s) },
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", platform, algorithm, err)
				}
				want, err := logRoundTrip(out.Job.ID, out.Job.Platform, records, samples)
				if err != nil {
					t.Fatalf("%s/%s: round trip: %v", platform, algorithm, err)
				}
				if _, err := finish(want, out.Model, &Output{}); err != nil {
					t.Fatalf("%s/%s: round trip: %v", platform, algorithm, err)
				}
				if saved(out.Job) != saved(want) {
					t.Fatalf("%s/%s: live archive differs from the round trip's", platform, algorithm)
				}
			}
		}
	})

	t.Run("random emitter sequences", func(t *testing.T) {
		var ok, refused int
		for seed := int64(0); seed < 500; seed++ {
			var assemble func(string, []archive.EnvSample) (*archive.Job, error)
			var forwarded []trace.Record
			job, samples := emitRandom(seed, func(job string, now func() float64) *trace.Emitter {
				em, fin := assembling(job, now, func(r trace.Record) { forwarded = append(forwarded, r) })
				assemble = fin
				return em
			})
			live, liveErr := assemble("P", samples)

			var records []trace.Record
			_, samples = emitRandom(seed, func(job string, now func() float64) *trace.Emitter {
				return trace.NewEmitter(func(r trace.Record) { records = append(records, r) }, job, now)
			})
			want, wantErr := logRoundTrip(job, "P", records, samples)

			if fmt.Sprint(forwarded) != fmt.Sprint(records) {
				t.Fatalf("seed %d: the sink saw other records than the emitter wrote", seed)
			}
			if fmt.Sprint(liveErr) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d: live error %v, round trip error %v", seed, liveErr, wantErr)
			}
			if liveErr != nil {
				refused++
				continue
			}
			ok++
			if got, want := saved(live), saved(want); got != want {
				t.Fatalf("seed %d: archives differ:\nlive       %q\nround trip %q", seed, got, want)
			}
		}
		// Both outcomes must be well represented, or the comparison
		// proves little about one of them.
		t.Logf("%d sequences assembled, %d refused", ok, refused)
		if ok < 100 || refused < 50 {
			t.Fatalf("%d sequences assembled and %d were refused; want at least 100 and 50", ok, refused)
		}
	})

	// The one input on which the two paths differ: Parse reads lines of
	// at most 4 MiB, so the round trip refused a longer record, which the
	// live path, having no line, assembles.
	t.Run("record longer than a parsed line", func(t *testing.T) {
		long := strings.Repeat("v", 4<<20)
		emit := func(em *trace.Emitter) {
			root := em.Start(trace.Root, "Client", "Job")
			em.Info(root, "Long", long)
			em.End(root)
		}
		now := func() float64 { return 1 }
		em, assemble := assembling("j", now, nil)
		emit(em)
		if _, err := assemble("P", nil); err != nil {
			t.Fatalf("live: %v", err)
		}
		var records []trace.Record
		emit(trace.NewEmitter(func(r trace.Record) { records = append(records, r) }, "j", now))
		if _, err := logRoundTrip("j", "P", records, nil); err == nil || !strings.Contains(err.Error(), "token too long") {
			t.Fatalf("round trip error %v, want the parser's token too long", err)
		}
	})
}

// hostile are the pieces random strings are made of: the line format's
// separators, quote and escape characters, line breaks, the record
// marker, non-ASCII and invalid UTF-8.
var hostile = []string{
	"", "a", "Worker-1", " ", "\"", "=", `k="v"`, "\\", "\n", "\r\n", "\t", "\x00",
	"GRANULA ", "é", "日本", "\u00a0", "\u2028", "\ufffd", "\xff", "\xc3", "\xed\xa0\x80",
}

// odd are the times that stress the text encoding: signed zero, tiny,
// huge and subnormal values.
var odd = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e21, 1e-300, 5e-324, 2.5e-310,
	math.SmallestNonzeroFloat64 * 7, 0.1, 1.0 / 3, -2.75, math.MaxFloat64,
}

func randText(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		sb.WriteString(hostile[rng.Intn(len(hostile))])
	}
	return sb.String()
}

func randTime(rng *rand.Rand) float64 {
	switch k := rng.Intn(100); {
	case k == 0:
		return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	case k < 50:
		return odd[rng.Intn(len(odd))]
	default:
		return rng.Float64() * 1e4
	}
}

// emitRandom drives an emitter from newEmitter with the operations seed
// picks — starts, infos and ends, now and then a second root, an end of
// an ended operation or operations left open — and returns the job ID
// and the environment samples to finish the job with.
func emitRandom(seed int64, newEmitter func(job string, now func() float64) *trace.Emitter) (string, []archive.EnvSample) {
	rng := rand.New(rand.NewSource(seed))
	clock := 0.0
	job := "job" + randText(rng)
	em := newEmitter(job, func() float64 { return clock })
	var open, started []trace.OpRef
	for n := rng.Intn(40); n > 0; n-- {
		clock = randTime(rng)
		switch k := rng.Intn(10); {
		case len(started) == 0 || k < 4:
			parent := trace.Root
			if len(started) > 0 && rng.Intn(60) != 0 {
				parent = started[rng.Intn(len(started))]
			}
			op := em.Start(parent, randText(rng), randText(rng))
			open, started = append(open, op), append(started, op)
		case k < 7:
			em.Info(started[rng.Intn(len(started))], randText(rng), randText(rng))
		case len(open) == 0 || rng.Intn(60) == 0:
			em.End(started[rng.Intn(len(started))])
		default:
			i := rng.Intn(len(open))
			em.End(open[i])
			open = append(open[:i], open[i+1:]...)
		}
	}
	if rng.Intn(12) != 0 {
		for i := len(open) - 1; i >= 0; i-- {
			clock = randTime(rng)
			em.End(open[i])
		}
	}
	samples := make([]archive.EnvSample, rng.Intn(6))
	for i := range samples {
		samples[i] = archive.EnvSample{Time: randTime(rng), Node: randText(rng), Kind: randText(rng), Used: randTime(rng)}
	}
	return job, samples
}
