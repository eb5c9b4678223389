package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0 < p <= 100) of values by the
// nearest-rank method, so a reported percentile is always a latency
// that was observed. It returns 0 for an empty slice.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), because the driver computes spreads that way. Fewer than two
// values have no spread: all three quartiles are the single value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// kindBalancedMedian is the mean over op kinds of each kind's median.
// A workload whose ops are a mix of very different kinds (a 17 ms
// OpenG run beside a 570 ms PowerGraph run) has a plain median that
// sits between two modes and ignores a change to either; this figure
// moves when any kind moves.
func kindBalancedMedian(byKind map[string][]float64) float64 {
	if len(byKind) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range byKind {
		sum += median(v)
	}
	return sum / float64(len(byKind))
}

// splitmix64 is the op-sequence generator: op i of a workload draws its
// choices from mix(seed, i, k), so the request a given op index issues
// does not depend on which client goroutine picked it up.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type opRand struct{ state uint64 }

func newOpRand(seed int64, op int) *opRand {
	return &opRand{state: splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(op))}
}

func (r *opRand) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// float returns a uniform value in [0,1).
func (r *opRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *opRand) intn(n int) int { return int(r.next() % uint64(n)) }

// zipfTable samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s from a precomputed cumulative table.
type zipfTable struct{ cdf []float64 }

func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipfTable{cdf: cdf}
}

func (z *zipfTable) sample(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
