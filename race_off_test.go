//go:build !race

package repro_test

// raceEnabled reports a race-detector build, whose runtime allocates on
// its own account.
const raceEnabled = false
