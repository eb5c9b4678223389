package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/archive"
)

func TestSegmentRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		job := genJob(rng, fmt.Sprintf("seg-%03d", i))
		meta := genMeta(rng, job)
		f := BuildColumns(job).Frame(meta)
		blob, err := EncodeSegment(f, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := DecodeSegment(blob)
		if err != nil {
			t.Fatal(err)
		}
		if st.JobVersion != uint64(i+1) || st.FormatVersion != segmentVersion {
			t.Fatalf("stats header wrong: %+v", st)
		}
		if got.rows() != f.rows() {
			t.Fatalf("rows %d != %d", got.rows(), f.rows())
		}
		if got.Meta != f.Meta {
			t.Fatalf("meta %+v != %+v", got.Meta, f.Meta)
		}
		// A decoded frame must aggregate byte-identically to the source
		// frame for any segment-compatible query.
		for iter := 0; iter < 5; iter++ {
			raw := genAggQuery(rng)
			q, err := Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			a, errA := q.AggregateFrame(f)
			b, errB := q.AggregateFrame(got)
			if (errA != nil) != (errB != nil) {
				t.Fatalf("%q: src err=%v decoded err=%v", raw, errA, errB)
			}
			if errA != nil {
				continue
			}
			if !bytes.Equal(marshalPartial(t, a), marshalPartial(t, b)) {
				t.Fatalf("%q: decoded frame aggregates differently", raw)
			}
		}
	}
}

func TestSegmentStatsFromTail(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	job := genJob(rng, "tail-job")
	f := BuildColumns(job).Frame(genMeta(rng, job))
	blob, err := EncodeSegment(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecodeSegmentStats(blob, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Any tail window that holds the whole stats frame decodes the
	// same stats; the constant-size hint must always be enough here.
	win := SegmentTailHint
	if win > len(blob) {
		win = len(blob)
	}
	tail := blob[len(blob)-win:]
	st, err := DecodeSegmentStats(tail, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != full.Rows || st.JobVersion != full.JobVersion || st.Dur != full.Dur || st.Mission != full.Mission {
		t.Fatalf("tail stats %+v != full stats %+v", st, full)
	}
	// A window too small for the footer reports errSegmentTail, not
	// garbage.
	if _, err := DecodeSegmentStats(blob[len(blob)-8:], int64(len(blob))); err != errSegmentTail {
		t.Fatalf("tiny window: got %v, want errSegmentTail", err)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	job := genJob(rng, "corrupt-job")
	f := BuildColumns(job).Frame(genMeta(rng, job))
	blob, err := EncodeSegment(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a sample of offsets: decode must error (or, for
	// stats-only damage, the stats decode must error) — never panic,
	// never return silently wrong data without failing a checksum.
	for off := 0; off < len(blob); off += 97 {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		_, _, bodyErr := DecodeSegment(bad)
		_, statsErr := DecodeSegmentStats(bad, int64(len(bad)))
		if bodyErr == nil && statsErr == nil {
			t.Fatalf("flip at %d: both body and stats decoded clean", off)
		}
	}
	// Truncations must error too.
	for _, n := range []int{0, 1, 7, 16, len(blob) / 2, len(blob) - 1} {
		if _, _, err := DecodeSegment(blob[:n]); err == nil {
			t.Fatalf("truncation to %d decoded clean", n)
		}
	}
}

// TestZoneMapPruningSound is the soundness property: whenever
// PruneAgainst says a segment cannot match, running the query over
// that segment must match zero rows. (Completeness — pruning often —
// is a performance property; soundness is correctness.)
func TestZoneMapPruningSound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pruned, scanned := 0, 0
	for i := 0; i < 300; i++ {
		job := genJob(rng, fmt.Sprintf("prune-%03d", i))
		meta := genMeta(rng, job)
		f := BuildColumns(job).Frame(meta)
		st := FrameStats(f, 1)
		raw := genAggQuery(rng)
		q, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if q.PruneAgainst(st) {
			pruned++
			jp, err := q.AggregateFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if jp.Rows != 0 || len(jp.Groups) != 0 {
				t.Fatalf("%q pruned a segment with %d matching rows (stats %+v)", raw, jp.Rows, st)
			}
		} else {
			scanned++
		}
	}
	if pruned == 0 {
		t.Fatal("generator never produced a prunable (query, segment) pair — the property was not exercised")
	}
	t.Logf("pruned %d / scanned %d", pruned, scanned)
}

// TestZoneMapPruningEffective pins that an obviously-cold segment is
// actually pruned — the numeric, symbol, and job.* range checks all
// fire on clear misses.
func TestZoneMapPruningEffective(t *testing.T) {
	job := testJob() // starts 0..20, missions Cleanup..ProcessGraph
	meta := JobMeta{ID: "q", Platform: "Giraph", Runtime: 20, Supersteps: 3}
	st := FrameStats(BuildColumns(job).Frame(meta), 1)
	prunable := []string{
		`from jobs where start > 100 group by mission`,
		`from jobs where duration < 0 group by mission`,
		`from jobs where mission = Zzz group by actor`,
		`from jobs where mission < Aaa group by actor`,
		`from jobs where job.platform = GraphX group by mission`,
		`from jobs where job.runtime > 100 group by mission`,
		`from jobs where depth > 10 group by mission`,
		`from jobs where start > 100 and mission = Compute group by mission`,
		`from jobs where start > 100 or mission = Zzz group by mission`,
	}
	for _, raw := range prunable {
		q, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !q.PruneAgainst(st) {
			t.Errorf("%q not pruned against %+v", raw, st)
		}
	}
	kept := []string{
		`from jobs where start > 5 group by mission`,
		`from jobs where mission = Compute group by actor`,
		`from jobs where not (start > 100) group by mission`,                // `not` never prunes
		`from jobs where start > 100 or mission = Compute group by mission`, // one arm possible
		`from jobs where actor ~ Zzz group by mission`,                      // substring never prunes
		`from jobs group by mission`,                                        // no predicate
	}
	for _, raw := range kept {
		q, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if q.PruneAgainst(st) {
			t.Errorf("%q wrongly pruned against %+v", raw, st)
		}
	}
}

// TestPruneNumericLookalikeSymbols pins the subtle soundness rule: a
// symbol column may only be lex-range-pruned when the constant does
// not parse as a number, because "5" and "5.0" are equal under the
// language's numeric compare but not under the lexicographic range
// the zone map stores.
func TestPruneNumericLookalikeSymbols(t *testing.T) {
	job := &archive.Job{
		ID: "numsym",
		Root: &archive.Operation{
			ID: "r", Mission: "5", Actor: "W", Start: 0, End: 10,
		},
	}
	f := BuildColumns(job).Frame(JobMeta{ID: "numsym"})
	st := FrameStats(f, 1)

	// "5.0" is lexicographically outside the ["5","5"] range but
	// numerically equal to every value in it: pruning would be wrong.
	q, err := Parse(`from jobs where mission = "5.0" group by mission`)
	if err != nil {
		t.Fatal(err)
	}
	if q.PruneAgainst(st) {
		t.Fatal(`mission = "5.0" pruned a segment whose only mission is "5"`)
	}
	jp, err := q.AggregateFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if jp.Rows != 1 {
		t.Fatalf("mission = \"5.0\" matched %d rows, want 1", jp.Rows)
	}

	// A non-numeric constant uses the same string compare the range
	// was built with, so the lex range is sound and prunes.
	q2, err := Parse(`from jobs where mission = Zzz group by mission`)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.PruneAgainst(st) {
		t.Fatal("mission = Zzz not pruned against an all-numeric mission column")
	}
}
