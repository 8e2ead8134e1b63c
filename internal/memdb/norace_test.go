//go:build !race

package memdb

const raceEnabled = false
