//go:build race

package stream

// raceEnabled reports that this binary was built with -race; allocation
// gates skip themselves because the race runtime adds bookkeeping
// allocations the gate would misattribute to the hot path.
const raceEnabled = true
