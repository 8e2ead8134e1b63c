package apuama

import (
	"reflect"
	"testing"

	"apuama/internal/core"
	"apuama/internal/experiments"
)

// TestFacadeDefaultOptionsRoundTrip extends core's TestDefaultOptionsRoundTrip
// to the facade: a Config that sets no engine option runs exactly the
// engine's defaults (core pins those as literals).
func TestFacadeDefaultOptionsRoundTrip(t *testing.T) {
	c, err := Open(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, eng, _ := c.Internals()
	if got, want := eng.Options(), core.DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("Open(Config{Nodes: 4}) built its engine with\n %+v\nwant DefaultOptions()\n %+v", got, want)
	}
}

// TestKnobsDeclaredOnce: no field name is declared in two of the
// configuration structs, so each engine knob has one declaration, in
// core.Options. Three names are shared on purpose: Engine is core.Options
// itself, carried whole by the facade and the experiment harness; Cost
// (the simulated hardware) and Nodes (the replica count, or the
// harness's sweep of them) describe the deployment each opens, not the
// engine.
func TestKnobsDeclaredOnce(t *testing.T) {
	shared := map[string]bool{"Engine": true, "Cost": true, "Nodes": true}
	owner := map[string]reflect.Type{}
	for _, st := range []reflect.Type{
		reflect.TypeOf(Config{}),
		reflect.TypeOf(core.Options{}),
		reflect.TypeOf(experiments.Config{}),
	} {
		for _, f := range reflect.VisibleFields(st) {
			if prev, ok := owner[f.Name]; ok && !shared[f.Name] {
				t.Errorf("%s is declared in both %v and %v", f.Name, prev, st)
			}
			owner[f.Name] = st
		}
	}
	if eng, ok := reflect.TypeOf(Config{}).FieldByName("Engine"); !ok || eng.Type != reflect.TypeOf(core.Options{}) {
		t.Errorf("Config.Engine is not core.Options")
	}
	if eng, ok := reflect.TypeOf(experiments.Config{}).FieldByName("Engine"); !ok || eng.Type != reflect.TypeOf(core.Options{}) {
		t.Errorf("experiments.Config.Engine is not core.Options")
	}
}
