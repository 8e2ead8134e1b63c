//go:build race

package memdb

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put back, so the allocation pin reads the pools' misses too.
const raceEnabled = true
