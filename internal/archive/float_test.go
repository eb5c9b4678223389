package archive

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceFloat is the float encoding the integer path was added to,
// kept as its oracle: every value through strconv's shortest-digits
// search, 'f' format or 'e' outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded. ok is false for NaN and ±Inf, which the
// encoder refuses.
func referenceFloat(buf []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf, true
}

// checkFloat fails unless the encoder writes f as referenceFloat does,
// or both refuse it and the encoder writes nothing.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	var e encoder
	e.float(f)
	want, ok := referenceFloat(nil, f)
	if !ok {
		if e.err == nil || len(e.buf) != 0 {
			t.Fatalf("float(%v) (bits %#x): err %v after %q, want an error and no bytes", f, math.Float64bits(f), e.err, e.buf)
		}
		return
	}
	if e.err != nil || !bytes.Equal(e.buf, want) {
		t.Fatalf("float(%v) (bits %#x) = %q (err %v), want %q", f, math.Float64bits(f), e.buf, e.err, want)
	}
}

// TestFloatMatchesReference holds the encoder's float to the
// shortest-digits encoding on the values the integer path must get
// right or leave alone: every integer in ±2^10, the integers and their
// neighbours around ±2^53 (where a float stops holding every integer),
// ±2^63 (where int64 stops), -0, 1e21 (where 'e' format starts), 1e-7,
// subnormals, integers plus a half, and random bit patterns.
func TestFloatMatchesReference(t *testing.T) {
	for i := -1 << 10; i <= 1<<10; i++ {
		checkFloat(t, float64(i))
	}
	var edges []float64
	for _, x := range []float64{1 << 53, 1 << 63, 1 << 52, 1e15, 1e16, 1e21, 1e20} {
		for _, v := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			edges = append(edges, v, -v, v-1, v+1, -v-1, -v+1)
		}
	}
	edges = append(edges,
		math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 0.5, -0.5, 1.5, 2.5, 0.1,
		5e-324, -5e-324, math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.Float64frombits(0x0010000000000000), math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	)
	for _, f := range edges {
		checkFloat(t, f)
	}
	rng := rand.New(rand.NewSource(53))
	for range 200_000 {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
		n := float64(rng.Int63n(1<<54) - 1<<53)
		checkFloat(t, n)
		checkFloat(t, n+0.5)
		checkFloat(t, n/1000)
	}
}

// FuzzEncodeFloat holds the encoder's float to referenceFloat for any
// float64 bit pattern.
func FuzzEncodeFloat(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 1 << 53, -(1 << 53), 1<<53 - 1, 1e21, 1e-7, 5e-324, 0.1, 12345.678} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat(t, math.Float64frombits(bits))
	})
}
