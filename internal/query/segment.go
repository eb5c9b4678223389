// On-disk columnar segment format.
//
// A segment is one job's Frame serialized as per-column typed blocks
// plus a zone-map stats footer, CRC-framed in the WAL's style
// (little-endian u32 length + u32 CRC32C per frame):
//
//	magic "GRNLCOL2"                     (8 bytes)
//	u32 bodyLen | u32 crc32c(body)       body frame header
//	body:
//	  u32 rows | u32 nsyms
//	  depth   int32   × rows
//	  start   float64 × rows   (IEEE bits)
//	  end     float64 × rows
//	  dur     float64 × rows
//	  mission uint32  × rows   (symbol IDs)
//	  actor   uint32  × rows
//	  id      uint32  × rows
//	  syms:   nsyms × (u32 len | bytes)
//	u32 statsLen | u32 crc32c(stats)     stats frame header
//	stats (SegStats, field order):
//	  u32 format | u64 jobVersion
//	  meta: str id | str platform | str algorithm
//	        f64 runtime | i64 supersteps | i64 operations
//	  u32 rows
//	  depth, start, end, dur:   f64 min | f64 max | u8 finite
//	  mission, actor, id:       str min | str max
//	u32 statsFrameLen | magic "GCT2"     trailer (8 bytes)
//
// where str is u32 len | bytes, f64 is IEEE bits (so -0, NaN and ±Inf
// round-trip exactly) and finite is 0 or 1. The v1 layout ("GRNLCOL1",
// a JSON stats frame, "GCT1") fails to decode and is rebuilt lazily.
//
// Columns are contiguous fixed-stride blocks at computable offsets —
// an mmap of the body could serve the typed slices directly; the
// current reader copies, which keeps segments independent of the file
// lifetime. The stats footer is reachable from the file tail alone
// (read the 8-byte trailer, then the stats frame). The serving store
// keeps every job's stats resident (FrameStats), so it prunes without
// touching the file and reads a scanned segment exactly once.
package query

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
)

const (
	segMagic        = "GRNLCOL2"
	segTrailerMagic = "GCT2"
	// segmentVersion stamps encoded segments; bump it (and the magics)
	// when the layout or the stats semantics change: a segment of
	// another version fails to decode and is rebuilt lazily.
	segmentVersion = 2
	// SegmentTailHint is how many trailing bytes of a segment file are
	// enough to recover the stats footer in one read for any realistic
	// stats size.
	SegmentTailHint = 64 << 10

	maxSegRows = 1 << 28
	maxSegSyms = 1 << 26
)

// errSegmentTail reports that the provided tail window was too small
// to contain the stats footer; callers fall back to a full read.
var errSegmentTail = errors.New("query: segment stats footer exceeds tail window")

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// NumRange is a numeric column's zone map. Finite reports that every
// value in the column is finite; Min/Max cover the finite values.
type NumRange struct {
	Min    float64
	Max    float64
	Finite bool
}

// SymRange is a symbol column's zone map: the lexicographically
// smallest and largest strings appearing in the column.
type SymRange struct {
	Min string
	Max string
}

// SegStats is the segment's stats footer: the job metadata, a version
// for staleness detection, and per-column zone maps. It is all a
// planner needs to prune the segment without reading the body.
type SegStats struct {
	FormatVersion int
	JobVersion    uint64
	Meta          JobMeta
	Rows          int

	Depth   NumRange
	Start   NumRange
	End     NumRange
	Dur     NumRange
	Mission SymRange
	Actor   SymRange
	ID      SymRange
}

func numRangeOf(col []float64) NumRange {
	r := NumRange{Finite: true}
	first := true
	for _, v := range col {
		if !isFinite(v) {
			r.Finite = false
			continue
		}
		if first || v < r.Min {
			r.Min = v
		}
		if first || v > r.Max {
			r.Max = v
		}
		first = false
	}
	return r
}

func numRangeOfInt32(col []int32) NumRange {
	r := NumRange{Finite: true}
	for i, v := range col {
		f := float64(v)
		if i == 0 || f < r.Min {
			r.Min = f
		}
		if i == 0 || f > r.Max {
			r.Max = f
		}
	}
	return r
}

func symRangeOf(col []uint32, syms []string) SymRange {
	var r SymRange
	first := true
	for _, id := range col {
		s := syms[id]
		if first || s < r.Min {
			r.Min = s
		}
		if first || s > r.Max {
			r.Max = s
		}
		first = false
	}
	return r
}

// FrameStats computes a frame's zone maps: exactly the stats footer
// EncodeSegment writes for (f, jobVersion). The serving store keeps
// one per job in memory so pruning needs no I/O.
func FrameStats(f *Frame, jobVersion uint64) *SegStats {
	return &SegStats{
		FormatVersion: segmentVersion,
		JobVersion:    jobVersion,
		Meta:          f.Meta,
		Rows:          f.rows(),
		Depth:         numRangeOfInt32(f.Depth),
		Start:         numRangeOf(f.Start),
		End:           numRangeOf(f.End),
		Dur:           numRangeOf(f.Dur),
		Mission:       symRangeOf(f.Mission, f.Syms),
		Actor:         symRangeOf(f.Actor, f.Syms),
		ID:            symRangeOf(f.ID, f.Syms),
	}
}

// EncodeSegment serializes a frame (and its zone-map stats) into the
// segment file format.
func EncodeSegment(f *Frame, jobVersion uint64) ([]byte, error) {
	rows, nsyms := f.rows(), len(f.Syms)
	if rows > maxSegRows || nsyms > maxSegSyms {
		return nil, fmt.Errorf("query: segment too large (%d rows, %d symbols)", rows, nsyms)
	}
	le := binary.LittleEndian
	// magic | body frame | stats frame (a few hundred bytes) | trailer
	out := make([]byte, 0, len(segMagic)+16+rows*(4+8*3+4*3)+nsyms*8+8+256+8)
	out = append(out, segMagic...)
	out = append(out, make([]byte, 8)...)
	body := len(out)
	out = le.AppendUint32(out, uint32(rows))
	out = le.AppendUint32(out, uint32(nsyms))
	for _, v := range f.Depth {
		out = le.AppendUint32(out, uint32(v))
	}
	for _, col := range [][]float64{f.Start, f.End, f.Dur} {
		for _, v := range col {
			out = le.AppendUint64(out, math.Float64bits(v))
		}
	}
	for _, col := range [][]uint32{f.Mission, f.Actor, f.ID} {
		for _, v := range col {
			out = le.AppendUint32(out, v)
		}
	}
	for _, s := range f.Syms {
		out = appendSegString(out, s)
	}
	sealSegFrame(out, body)

	out = append(out, make([]byte, 8)...)
	stats := len(out)
	out = appendSegStats(out, FrameStats(f, jobVersion))
	sealSegFrame(out, stats)
	out = le.AppendUint32(out, uint32(len(out)-stats+8))
	out = append(out, segTrailerMagic...)
	return out, nil
}

// sealSegFrame fills the 8-byte frame header just before out[start:]
// with the payload's length and CRC.
func sealSegFrame(out []byte, start int) {
	payload := out[start:]
	binary.LittleEndian.PutUint32(out[start-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start-4:], crc32.Checksum(payload, segCRC))
}

func appendSegString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendSegStats appends the binary stats payload (layout in the file
// comment).
func appendSegStats(b []byte, st *SegStats) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(st.FormatVersion))
	b = le.AppendUint64(b, st.JobVersion)
	b = appendSegString(b, st.Meta.ID)
	b = appendSegString(b, st.Meta.Platform)
	b = appendSegString(b, st.Meta.Algorithm)
	b = le.AppendUint64(b, math.Float64bits(st.Meta.Runtime))
	b = le.AppendUint64(b, uint64(st.Meta.Supersteps))
	b = le.AppendUint64(b, uint64(st.Meta.Operations))
	b = le.AppendUint32(b, uint32(st.Rows))
	for _, r := range [...]*NumRange{&st.Depth, &st.Start, &st.End, &st.Dur} {
		b = le.AppendUint64(b, math.Float64bits(r.Min))
		b = le.AppendUint64(b, math.Float64bits(r.Max))
		finite := byte(0)
		if r.Finite {
			finite = 1
		}
		b = append(b, finite)
	}
	for _, r := range [...]*SymRange{&st.Mission, &st.Actor, &st.ID} {
		b = appendSegString(b, r.Min)
		b = appendSegString(b, r.Max)
	}
	return b
}

// segStatsReader decodes the stats payload. The first short read marks
// it bad and every later read returns zero; decoded strings are
// substrings of one copy of the payload.
type segStatsReader struct {
	b   []byte
	s   string
	off int
	bad bool
}

// take advances past n bytes and returns where they start.
func (r *segStatsReader) take(n uint64) (int, bool) {
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return 0, false
	}
	i := r.off
	r.off += int(n)
	return i, true
}

func (r *segStatsReader) u32() uint32 {
	if i, ok := r.take(4); ok {
		return binary.LittleEndian.Uint32(r.b[i:])
	}
	return 0
}

func (r *segStatsReader) u64() uint64 {
	if i, ok := r.take(8); ok {
		return binary.LittleEndian.Uint64(r.b[i:])
	}
	return 0
}

func (r *segStatsReader) str() string {
	n := uint64(r.u32())
	if i, ok := r.take(n); ok {
		return r.s[i:r.off]
	}
	return ""
}

func decodeSegStats(payload []byte) (*SegStats, error) {
	r := &segStatsReader{b: payload, s: string(payload)}
	st := &SegStats{FormatVersion: int(r.u32()), JobVersion: r.u64()}
	st.Meta.ID, st.Meta.Platform, st.Meta.Algorithm = r.str(), r.str(), r.str()
	st.Meta.Runtime = math.Float64frombits(r.u64())
	st.Meta.Supersteps = int(int64(r.u64()))
	st.Meta.Operations = int(int64(r.u64()))
	st.Rows = int(r.u32())
	for _, nr := range [...]*NumRange{&st.Depth, &st.Start, &st.End, &st.Dur} {
		nr.Min = math.Float64frombits(r.u64())
		nr.Max = math.Float64frombits(r.u64())
		if i, ok := r.take(1); ok {
			switch payload[i] {
			case 1:
				nr.Finite = true
			case 0:
			default:
				r.bad = true
			}
		}
	}
	for _, sr := range [...]*SymRange{&st.Mission, &st.Actor, &st.ID} {
		sr.Min, sr.Max = r.str(), r.str()
	}
	switch {
	case r.bad || r.off != len(payload):
		return nil, fmt.Errorf("query: malformed segment stats")
	case st.FormatVersion != segmentVersion:
		return nil, fmt.Errorf("query: segment stats format %d, want %d", st.FormatVersion, segmentVersion)
	case st.Rows > maxSegRows:
		return nil, fmt.Errorf("query: implausible segment stats rows")
	}
	return st, nil
}

// DecodeSegmentStats recovers the stats footer from the tail of a
// segment file without the body: tail holds the file's last len(tail)
// bytes and fileSize the full size. Returns errSegmentTail when the
// window is too small (caller re-reads with a bigger one).
func DecodeSegmentStats(tail []byte, fileSize int64) (*SegStats, error) {
	if int64(len(tail)) > fileSize {
		return nil, fmt.Errorf("query: segment tail larger than file")
	}
	if len(tail) < 8 || fileSize < int64(len(segMagic))+16 {
		return nil, fmt.Errorf("query: segment too small")
	}
	tr := tail[len(tail)-8:]
	if string(tr[4:]) != segTrailerMagic {
		return nil, fmt.Errorf("query: bad segment trailer")
	}
	frameLen := int64(binary.LittleEndian.Uint32(tr[:4]))
	if frameLen < 8 || frameLen > fileSize-8 {
		return nil, fmt.Errorf("query: bad segment stats length")
	}
	if frameLen+8 > int64(len(tail)) {
		return nil, errSegmentTail
	}
	frame := tail[int64(len(tail))-8-frameLen : len(tail)-8]
	statsLen := binary.LittleEndian.Uint32(frame[:4])
	if int64(statsLen) != frameLen-8 {
		return nil, fmt.Errorf("query: segment stats frame length mismatch")
	}
	crc := binary.LittleEndian.Uint32(frame[4:8])
	payload := frame[8:]
	if crc32.Checksum(payload, segCRC) != crc {
		return nil, fmt.Errorf("query: segment stats checksum mismatch")
	}
	return decodeSegStats(payload)
}

// DecodeSegment deserializes a full segment file into a Frame (without
// paths, infos or derived — segments do not carry them) and its stats.
func DecodeSegment(blob []byte) (*Frame, *SegStats, error) {
	if len(blob) < len(segMagic)+8 || string(blob[:len(segMagic)]) != segMagic {
		return nil, nil, fmt.Errorf("query: bad segment magic")
	}
	off := len(segMagic)
	bodyLen := int(binary.LittleEndian.Uint32(blob[off : off+4]))
	bodyCRC := binary.LittleEndian.Uint32(blob[off+4 : off+8])
	off += 8
	if bodyLen < 8 || off+bodyLen > len(blob) {
		return nil, nil, fmt.Errorf("query: bad segment body length")
	}
	body := blob[off : off+bodyLen]
	if crc32.Checksum(body, segCRC) != bodyCRC {
		return nil, nil, fmt.Errorf("query: segment body checksum mismatch")
	}
	st, err := DecodeSegmentStats(blob, int64(len(blob)))
	if err != nil {
		return nil, nil, err
	}

	rows := int(binary.LittleEndian.Uint32(body[:4]))
	nsyms := int(binary.LittleEndian.Uint32(body[4:8]))
	if rows < 0 || rows > maxSegRows || nsyms < 0 || nsyms > maxSegSyms {
		return nil, nil, fmt.Errorf("query: implausible segment dimensions")
	}
	need := 8 + rows*(4+8*3+4*3)
	if len(body) < need {
		return nil, nil, fmt.Errorf("query: truncated segment body")
	}
	f := &Frame{
		Meta:      st.Meta,
		Depth:     make([]int32, rows),
		Start:     make([]float64, rows),
		End:       make([]float64, rows),
		Dur:       make([]float64, rows),
		Mission:   make([]uint32, rows),
		Actor:     make([]uint32, rows),
		ID:        make([]uint32, rows),
		Syms:      make([]string, nsyms),
		SymFloat:  make([]float64, nsyms),
		SymFinite: make([]bool, nsyms),
	}
	p := 8
	for i := 0; i < rows; i++ {
		f.Depth[i] = int32(binary.LittleEndian.Uint32(body[p:]))
		p += 4
	}
	for _, col := range [][]float64{f.Start, f.End, f.Dur} {
		for i := 0; i < rows; i++ {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[p:]))
			p += 8
		}
	}
	for _, col := range [][]uint32{f.Mission, f.Actor, f.ID} {
		for i := 0; i < rows; i++ {
			v := binary.LittleEndian.Uint32(body[p:])
			p += 4
			if int(v) >= nsyms {
				return nil, nil, fmt.Errorf("query: segment symbol id out of range")
			}
			col[i] = v
		}
	}
	// One backing string for the whole dictionary region; each symbol
	// is a zero-copy substring of it. The few length-prefix bytes kept
	// alive are nothing next to one allocation per symbol.
	region := string(body[p:])
	q := 0
	for i := 0; i < nsyms; i++ {
		if q+4 > len(region) {
			return nil, nil, fmt.Errorf("query: truncated segment symbols")
		}
		n := int(binary.LittleEndian.Uint32(body[p+q:]))
		q += 4
		if n < 0 || q+n > len(region) {
			return nil, nil, fmt.Errorf("query: truncated segment symbols")
		}
		s := region[q : q+n]
		q += n
		f.Syms[i] = s
		v := valueOf(s)
		f.SymFloat[i], f.SymFinite[i] = v.f, v.finite
	}
	f.noteFinite()
	return f, st, nil
}

// --- zone-map pruning ---

// PruneAgainst reports whether the zone maps prove no row of the
// frame they describe can satisfy the where clause — in which case the
// frame need not be scanned at all. The analysis is conservative: any
// uncertainty (non-finite values in a column, numeric-looking
// constants against symbol columns, `not`/`~` operators, info. and
// derived. fields) keeps the frame scannable, so pruning never changes
// a result, only skips provably-empty work.
func (q *Query) PruneAgainst(st *SegStats) bool {
	if st.Rows == 0 {
		return true
	}
	if q.where == nil {
		return false
	}
	return !prunePossible(q.where, st)
}

// prunePossible reports whether some row in a segment with these stats
// could satisfy e (conservatively: true when unsure).
func prunePossible(e expr, st *SegStats) bool {
	switch t := e.(type) {
	case orExpr:
		return prunePossible(t.a, st) || prunePossible(t.b, st)
	case andExpr:
		return prunePossible(t.a, st) && prunePossible(t.b, st)
	case notExpr:
		// `not x` can hold even when x holds somewhere in the range;
		// bounding it would need "x holds for ALL rows" reasoning.
		return true
	case predicate:
		return predPossible(t, st)
	}
	return true
}

func predPossible(pr predicate, st *SegStats) bool {
	if pr.op == "~" {
		return true
	}
	switch fd := pr.field; fd.kind {
	case jobField:
		// Constant per job: the zone "range" is exact.
		v, _ := fd.job(&st.Meta)
		return evalStringPredicate(v, pr.op, pr.value)
	case symbolField:
		return symRangePossible(pr, fd.symZone(st))
	case floatField, depthField:
		return numRangePossible(pr, fd.numZone(st))
	}
	// info./derived.: no zone information.
	return true
}

// symRangePossible bounds a symbol-column predicate with the column's
// lexicographic range. compareValues switches to numeric comparison
// when both sides parse as finite numbers, and a lexicographic range
// does not bound numeric order — so pruning only applies to constants
// that do NOT parse as numbers, where every per-row comparison is the
// string compare the range was built with.
func symRangePossible(pr predicate, r SymRange) bool {
	if valueOf(pr.value).finite {
		return true
	}
	return rangePossible(pr.op,
		strings.Compare(r.Min, pr.value),
		strings.Compare(r.Max, pr.value))
}

// numRangePossible bounds a numeric-column predicate with the column's
// [min,max]. Only sound when every column value is finite and the
// constant parses as a finite number — otherwise per-row comparisons
// fall back to string compares the range says nothing about.
func numRangePossible(pr predicate, r NumRange) bool {
	v := valueOf(pr.value)
	if !r.Finite || !v.finite {
		return true
	}
	return rangePossible(pr.op, cmp.Compare(r.Min, v.f), cmp.Compare(r.Max, v.f))
}

// rangePossible decides `∃ x in [min,max] : x op value` from the
// comparisons of the range endpoints against the value.
func rangePossible(op string, cmpMin, cmpMax int) bool {
	switch op {
	case "=":
		return cmpMin <= 0 && cmpMax >= 0
	case "!=":
		return !(cmpMin == 0 && cmpMax == 0)
	case ">":
		return cmpMax > 0
	case ">=":
		return cmpMax >= 0
	case "<":
		return cmpMin < 0
	case "<=":
		return cmpMin <= 0
	}
	return true
}
