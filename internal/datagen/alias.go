package datagen

import "math/rand"

// alias is a Walker/Vose alias-method sampler: O(n) construction, O(1)
// sampling from an arbitrary discrete distribution. It backs the Chung–Lu
// generator, where every edge endpoint is drawn from the Zipf weight
// vector.
type alias struct {
	prob  []float64
	alias []int
	rng   *rand.Rand
}

// newAlias builds a sampler over the given non-negative weights, which
// need not be normalized. At least one weight must be positive.
func newAlias(weights []float64, rng *rand.Rand) *alias {
	n := len(weights)
	if n == 0 {
		panic("datagen: empty weight vector")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("datagen: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("datagen: all weights zero")
	}
	a := &alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
		rng:   rng,
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// sample draws one index from the distribution.
func (a *alias) sample() int {
	i := a.rng.Intn(len(a.prob))
	if a.rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
