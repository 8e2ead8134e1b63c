package sqltypes

import (
	"math"
	"testing"
)

// TestCompareEqualImpliesHashEqual: hash joins, hash aggregation and
// DISTINCT bucket by Hash and then ask Compare, so two values Compare
// calls equal must land in one bucket — over every pair of kinds a column
// can hold (and NULL), across representations: 3 and 3.0, a date and its
// day number, true and 1, +0 and -0 (which hashed apart: `group by` saw two
// groups where `=` saw one value), an integer past 2^53 and the float it
// rounds to. NaN is left out: Compare orders it nowhere, calling it equal
// to every number, which no hash can follow.
func TestCompareEqualImpliesHashEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []Value{
		Null(),
		NewInt(-3), NewInt(0), NewInt(1), NewInt(2), NewInt(9131), NewInt(1 << 53), NewInt(1<<53 + 1),
		NewFloat(-3), NewFloat(0), NewFloat(negZero), NewFloat(0 * -5.0), NewFloat(negZero * 5), NewFloat(1), NewFloat(2), NewFloat(2.5),
		NewFloat(9131), NewFloat(1 << 53), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewString(""), NewString("0"), NewString("2"), NewString("a"),
		NewDate(0), NewDate(1), NewDate(2), NewDate(9131),
		NewBool(false), NewBool(true),
	}
	kinds := map[Kind]bool{}
	equalPairs := 0
	for _, a := range vals {
		kinds[a.K] = true
		for _, b := range vals {
			if Compare(a, b) != 0 {
				continue
			}
			equalPairs++
			if a.Hash() != b.Hash() {
				t.Errorf("%s %v and %s %v compare equal but hash %x and %x", a.K, a, b.K, b, a.Hash(), b.Hash())
			}
			if HashRow(Row{a, a}) != HashRow(Row{b, a}) {
				t.Errorf("rows starting %s %v and %s %v compare equal but HashRow differs", a.K, a, b.K, b)
			}
		}
	}
	if len(kinds) != 6 || equalPairs < len(vals)+40 {
		t.Fatalf("only %d kinds and %d equal pairs covered", len(kinds), equalPairs)
	}
	if math.Float64bits(NewFloat(negZero).F) == math.Float64bits(NewFloat(0).F) {
		t.Fatal("the fixture's -0 is not a negative zero")
	}
}
