//go:build race

package engine

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put back, so the allocation pins cannot read zero.
const raceEnabled = true
