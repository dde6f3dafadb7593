//go:build !race

package spef

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
