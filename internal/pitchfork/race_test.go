//go:build race

package pitchfork_test

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = true
