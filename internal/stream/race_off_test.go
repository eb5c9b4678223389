//go:build !race

package stream

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
