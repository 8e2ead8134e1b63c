package core

import (
	"reflect"
	"testing"
	"time"
)

// TestDefaultOptionsRoundTrip pins the contract that DefaultOptions is a
// fixed point of the engine's option normalization: passing it through
// New must change nothing. This is the regression test for the bug where
// New re-applied defaults inline and silently dropped the gather budget —
// defaulting now lives in exactly one place (withDefaults). The resolved
// values are literals, so changing a default fails here: seqscan off and
// the barrier on (the zero value), a gather budget of 8 batches, a 30s
// barrier timeout and 8 statements per node.
func TestDefaultOptionsRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	want := Options{gatherBudget: 8, barrierTimeout: 30 * time.Second}
	if !reflect.DeepEqual(opts, want) {
		t.Errorf("DefaultOptions:\n got %+v\nwant %+v", opts, want)
	}
	s := buildStack(t, 2, opts)
	if !reflect.DeepEqual(s.eng.Options(), opts) {
		t.Errorf("DefaultOptions mutated by New:\n got %+v\nwant %+v", s.eng.Options(), opts)
	}
	for i, p := range s.eng.Procs() {
		if got := cap(p.pool); got != 8 {
			t.Errorf("node %d pool size = %d, want 8", i, got)
		}
	}
	// Normalizing twice is idempotent (withDefaults is a projection), and
	// the zero Options resolves to exactly the defaults.
	if again := opts.withDefaults(); !reflect.DeepEqual(again, opts) {
		t.Errorf("withDefaults not idempotent:\n got %+v\nwant %+v", again, opts)
	}
	if zero := (Options{}).withDefaults(); !reflect.DeepEqual(zero, opts) {
		t.Errorf("zero Options resolved to %+v, want %+v", zero, opts)
	}
}
