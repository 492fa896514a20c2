//go:build !race

package crypto

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
