//go:build !race

package server_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
