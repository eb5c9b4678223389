package query

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/archive"
)

// sameStats compares two footers with floats compared by IEEE bits, so
// -0 differs from 0 and a NaN equals itself.
func sameStats(a, b SegStats) bool {
	floats := func(s *SegStats) []*float64 {
		return []*float64{&s.Meta.Runtime,
			&s.Depth.Min, &s.Depth.Max, &s.Start.Min, &s.Start.Max,
			&s.End.Min, &s.End.Max, &s.Dur.Min, &s.Dur.Max}
	}
	fa, fb := floats(&a), floats(&b)
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
		*fa[i], *fb[i] = 0, 0
	}
	return a == b
}

// fuzzFrame builds a small frame of n%3 rows whose values come from the
// fuzzer: zero rows give empty symbol ranges, and start/dur/runtime may
// be -0, NaN or ±Inf.
func fuzzFrame(n uint8, sym string, runtime, start, dur float64) *Frame {
	f := &Frame{
		Meta: JobMeta{ID: sym, Platform: sym + "p", Runtime: runtime, Supersteps: -int(n), Operations: int(n) << 40},
		Syms: []string{sym, ""},
	}
	for i := 0; i < int(n%3); i++ {
		f.Depth = append(f.Depth, int32(i)-1)
		f.Start = append(f.Start, start)
		f.End = append(f.End, start+dur)
		f.Dur = append(f.Dur, dur*float64(i))
		f.Mission = append(f.Mission, uint32(i%2))
		f.Actor = append(f.Actor, 0)
		f.ID = append(f.ID, 1)
	}
	return f
}

// FuzzSegmentDecode feeds arbitrary bytes to the segment decoders. They
// must never panic; a blob that decodes must yield the same footer from
// DecodeSegmentStats as from DecodeSegment; and a frame built from the
// other inputs must round-trip EncodeSegment → DecodeSegment to exactly
// its FrameStats, and re-encode to the same bytes.
func FuzzSegmentDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	job := genJob(rng, "fz-seg")
	valid, err := EncodeSegment(BuildColumns(job).Frame(genMeta(rng, job)), 3)
	if err != nil {
		f.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		blob           []byte
		n              uint8
		sym            string
		rt, start, dur float64
	}{
		{valid, 2, "Compute", 21, 0, 5},
		{valid[:len(valid)-1], 0, "", negZero, negZero, 0},
		{valid[len(valid)-40:], 1, "5.0", math.NaN(), math.Inf(-1), math.Inf(1)},
		{[]byte("GRNLCOL1"), 2, "x", math.Inf(1), 1e308, 1e308},
		{nil, 1, "", -1, math.NaN(), -0.5},
	} {
		f.Add(seed.blob, seed.n, seed.sym, seed.rt, seed.start, seed.dur)
	}
	f.Fuzz(func(t *testing.T, blob []byte, n uint8, sym string, rt, start, dur float64) {
		if _, st, err := DecodeSegment(blob); err == nil {
			tail, err := DecodeSegmentStats(blob, int64(len(blob)))
			if err != nil || !sameStats(*st, *tail) {
				t.Fatalf("DecodeSegment stats %+v, DecodeSegmentStats %+v (%v)", st, tail, err)
			}
		}

		fr := fuzzFrame(n, sym, rt, start, dur)
		version := uint64(n) << 56
		enc, err := EncodeSegment(fr, version)
		if err != nil {
			t.Fatal(err)
		}
		dec, st, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("encoded segment does not decode: %v", err)
		}
		if want := FrameStats(fr, version); !sameStats(*st, *want) {
			t.Fatalf("footer %+v, FrameStats %+v", st, want)
		}
		re, err := EncodeSegment(dec, version)
		if err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("decoded frame re-encodes differently (%v)", err)
		}
	})
}

// TestParseNeverPanicsProperty feeds the parser random byte soup and
// random near-grammatical strings: it must return an error or a query,
// never panic, and any query it returns must Select without panicking.
func TestParseNeverPanicsProperty(t *testing.T) {
	job := &archive.Job{
		ID: "f",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Start: 0, End: 10,
			Children: []*archive.Operation{
				{ID: "a", Mission: "A", Actor: "x", Start: 0, End: 5,
					Infos: map[string]string{"K": "1"}},
			},
		},
	}
	words := []string{
		"mission", "actor", "duration", "depth", "info.K", "derived.D",
		"=", "!=", "~", ">", ">=", "<", "<=", "and", "or", "not", "(", ")",
		"order", "by", "limit", "asc", "desc", "Compute", "1.5", `"quo ted"`,
		"bogus", "", "==", "<>",
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var input string
		if rng.Intn(2) == 0 {
			// Random word salad from the token vocabulary.
			n := rng.Intn(12)
			for i := 0; i < n; i++ {
				input += words[rng.Intn(len(words))] + " "
			}
		} else {
			// Random bytes.
			b := make([]byte, rng.Intn(40))
			for i := range b {
				b[i] = byte(rng.Intn(128))
			}
			input = string(b)
		}
		q, err := Parse(input)
		if err != nil {
			return true
		}
		_ = q.Select(job)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzQueryV2 drives the whole query pipeline with arbitrary input:
// any string that parses must execute over both the columnar frame and
// the tree walker without panicking. A row query must select the same
// operations in the same order on both; an aggregate query must give
// identical partials, the same on a decoded segment unless it needs
// operation details, and render.
func FuzzQueryV2(f *testing.F) {
	seeds := []string{
		`from jobs group by mission`,
		`from jobs where mission = Compute group by mission, actor agg count, sum(duration), p95(duration)`,
		`from jobs where job.runtime > 1 group by job.platform agg max(job.runtime) order by max(job.runtime) desc`,
		`from jobs top 3 mission by sum(duration)`,
		`group by depth agg count, min(mission), max(actor) order by count desc limit 2`,
		`from jobs where not (duration <= 0 or mission = "5.0") group by actor agg avg(duration)`,
		`mission = Compute order by duration desc limit 5`,
		`order by info.K desc`, `actor ~ Worker order by info.K`, `order by depth desc limit 3`,
		`order by id`, `order by end desc`, `duration > NaN order by duration`,
		`info.K != Inf order by info.K desc`, `not end < +Inf order by start limit 2`,
		`from jobs where`, `group by`, `top`, `agg`, `from jobs top 99999999 mission by count`,
		"from jobs group by mission agg \x00", `from jobs group by mission limit 99`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	job := &archive.Job{
		ID: "fz", Platform: "Giraph",
		Root: &archive.Operation{
			ID: "r", Mission: "Job", Actor: "Client", Start: -1, End: 20,
			Children: []*archive.Operation{
				{ID: "a", Mission: "5", Actor: "Worker-0", Start: 0, End: 5,
					Infos: map[string]string{"K": "1"}},
				{ID: "b", Mission: "5.0", Actor: "Worker-1", Start: 0, End: 0,
					Infos: map[string]string{"K": "NaN"}},
				{ID: "c", Mission: "Compute", Actor: "Worker-0", Start: 2, End: math.Inf(1),
					Derived: map[string]string{"D": "x"}},
			},
		},
	}
	meta := JobMeta{ID: "fz", Platform: "Giraph", Algorithm: "BFS", Runtime: 21, Supersteps: 2, Operations: 4}
	cols, order := BuildColumns(job), dfsOps(job)
	frame := cols.Frame(meta)
	seg, err := EncodeSegment(frame, 1)
	if err != nil {
		f.Fatal(err)
	}
	decoded, stats, err := DecodeSegment(seg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		if !q.IsAggregate() {
			assertSameOps(t, input, q.Select(job), q.SelectColumns(cols), order)
			return
		}
		jpF, errF := q.AggregateFrame(frame)
		jpT, errT := q.AggregateTree(job, meta)
		if (errF != nil) != (errT != nil) {
			t.Fatalf("%q: frame err=%v, tree err=%v", input, errF, errT)
		}
		if errF != nil {
			return
		}
		bf, _ := json.Marshal(jpF)
		bt, _ := json.Marshal(jpT)
		if string(bf) != string(bt) {
			t.Fatalf("%q: frame and tree partials diverge:\n%s\nvs\n%s", input, bf, bt)
		}
		// Pruning must be sound for whatever predicate came in.
		if q.PruneAgainst(stats) && jpF.Rows != 0 {
			t.Fatalf("%q: pruned a job with %d matching rows", input, jpF.Rows)
		}
		// The decoded segment agrees too, unless the query needs
		// operation details segments do not store.
		jpS, errS := q.AggregateFrame(decoded)
		if needsDetails(q) {
			if errS == nil {
				t.Fatalf("%q needs details but ran on a segment frame", input)
			}
		} else if errS != nil {
			t.Fatalf("%q: segment frame: %v", input, errS)
		} else {
			bs, _ := json.Marshal(jpS)
			if string(bs) != string(bf) {
				t.Fatalf("%q: segment partial diverges:\n%s\nvs\n%s", input, bs, bf)
			}
		}
		if _, err := q.RenderAggregate(input, "jobs", "", []JobPartial{jpF}); err != nil {
			t.Fatalf("%q: render: %v", input, err)
		}
	})
}

// FuzzValueOf holds valueOf, which skips strconv.ParseFloat for a
// string that cannot start a float literal, to the plain parse: the
// same number (bit for bit) and finiteness for every string, and every
// string the guard skips is one ParseFloat refuses.
func FuzzValueOf(f *testing.F) {
	for _, s := range []string{
		"", "+", "-", ".", "5", "-5.0", "+.5e3", "0x1p-2", "1_000", "0x_1p0", "inf", "-Inf", "+infinity",
		"NaN", "nan", "n", "I", "Worker-3", "e5", "_1", " 1", "\t", "1e400", "-1e-400", "+-1", "--1",
		"٣", "\x00", "ｉnf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pf, err := strconv.ParseFloat(s, 64)
		want := value{s: s, f: pf, finite: err == nil && isFinite(pf)}
		got := valueOf(s)
		if got.s != want.s || math.Float64bits(got.f) != math.Float64bits(want.f) || got.finite != want.finite {
			t.Fatalf("valueOf(%q) = %+v, ParseFloat gives %+v (err %v)", s, got, want, err)
		}
		if !canStartFloat(s) && err == nil {
			t.Fatalf("canStartFloat(%q) is false, but ParseFloat reads %v", s, pf)
		}
	})
}
