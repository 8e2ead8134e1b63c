//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put back, so an allocation pin reads the pools' misses too.
const raceEnabled = true
