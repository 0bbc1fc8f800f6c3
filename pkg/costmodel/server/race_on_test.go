//go:build race

package server_test

// raceEnabled reports that the race detector is active: sync.Pool
// drops entries at random under -race, so allocation counts vary.
const raceEnabled = true
