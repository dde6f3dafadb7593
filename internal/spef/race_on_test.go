//go:build race

package spef

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under race, where sync.Pool drops items at random.
const raceEnabled = true
