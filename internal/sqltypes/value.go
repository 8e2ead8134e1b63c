// Package sqltypes defines the value model shared by every layer of the
// Apuama stack: the SQL parser, the per-node execution engines, the
// middleware and the result composer. Values are small tagged structs
// rather than interfaces so that rows can be stored and compared without
// per-datum heap allocations.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the storage types the engine supports. The set mirrors
// what TPC-H needs from PostgreSQL: integers, decimals (stored as float64,
// see DESIGN.md), fixed/variable text, dates and booleans.
type Kind uint8

// The supported value kinds. KindNull is the zero value so that a zero
// Value is a SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate     // days since 1970-01-01, stored in I
	KindBool     // 0/1 stored in I
	KindInterval // count in I, unit ("day", "month", "year") in S
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindBool:
		return "BOOLEAN"
	case KindInterval:
		return "INTERVAL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL datum. The active representation depends on K:
// integers, dates and booleans live in I, floats in F, strings in S.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Row is a tuple of values. Rows are positional; column names live in the
// schema that accompanies a result set or relation.
type Row []Value

// Clone returns a deep copy of the row (Value is value-typed already, so a
// slice copy suffices; string contents are immutable in Go).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Convenience constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{K: KindInt, I: v} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{K: KindFloat, F: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{K: KindString, S: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// NewDate returns a DATE value holding the given number of days since the
// Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewInterval returns an INTERVAL value of n units, where unit is one of
// "day", "month" or "year".
func NewInterval(n int64, unit string) Value {
	return Value{K: KindInterval, I: n, S: unit}
}

// epoch is the zero day for KindDate values.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate converts an ISO "YYYY-MM-DD" literal into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null(), fmt.Errorf("invalid date literal %q: %w", s, err)
	}
	return NewDate(int64(t.Sub(epoch).Hours() / 24)), nil
}

// MustDate is ParseDate for trusted literals; it panics on error.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// DateString renders a DATE value as "YYYY-MM-DD".
func (v Value) DateString() string {
	return epoch.AddDate(0, 0, int(v.I)).Format("2006-01-02")
}

// DateYMD decomposes a DATE value into calendar year, month and day
// (EXTRACT support).
func (v Value) DateYMD() (year, month, day int) {
	t := epoch.AddDate(0, 0, int(v.I))
	return t.Year(), int(t.Month()), t.Day()
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool reports the truth value of a BOOLEAN (NULL and non-booleans are
// false; the three-valued logic helpers live in the expression evaluator).
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// AsFloat coerces a numeric value to float64. Non-numeric values yield 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt coerces a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// String renders the value for display and for wire encoding of errors.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return v.DateString()
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInterval:
		return fmt.Sprintf("interval '%d' %s", v.I, v.S)
	default:
		return fmt.Sprintf("<bad kind %d>", uint8(v.K))
	}
}

// Compare orders two values. NULL sorts before every non-NULL value, the
// order MIN/MAX and the indexes rely on; ORDER BY does not use it as is:
// the sort operator puts NULL after every value, which gives PostgreSQL's
// defaults, NULLS LAST ascending and NULLS FIRST descending. Numeric kinds
// compare by numeric value so that INT 3 == FLOAT 3.0; dates compare as day
// numbers; strings compare lexicographically. Comparing a string with a
// number is defined (string sorts after) so the composer can sort
// heterogeneous columns deterministically.
func Compare(a, b Value) int {
	if a.K == b.K && a.K != KindNull {
		// One kind, the common case: the same order as below, inline.
		switch a.K {
		case KindString:
			return strings.Compare(a.S, b.S)
		case KindFloat:
			return ordered(a.F, b.F)
		}
		return ordered(a.I, b.I)
	}
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	ar, br := rank(a.K), rank(b.K)
	if ar != br {
		if ar < br {
			return -1
		}
		return 1
	}
	// Two numeric kinds (strings are one kind): in float space unless
	// both are int-backed.
	if a.K != KindFloat && b.K != KindFloat {
		return ordered(a.I, b.I)
	}
	return ordered(a.AsFloat(), b.AsFloat())
}

// ordered is -1, 0 or 1 as a is below, level with or above b; a NaN is
// level with everything.
func ordered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// rank buckets kinds into comparable families.
const (
	rankNumeric = iota // ints, floats, dates, bools share numeric order
	rankString
)

func rank(k Kind) int {
	if k == KindString {
		return rankString
	}
	return rankNumeric
}

// Equal reports SQL equality ignoring representation (3 == 3.0).
func Equal(a, b Value) bool { return !a.IsNull() && !b.IsNull() && Compare(a, b) == 0 }

// Hash returns a stable hash used by hash joins and hash aggregation.
// Values that compare equal hash equally (ints and equal floats included).
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch v.K {
	case KindNull:
		mix(0)
	case KindString:
		mix(1)
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	default:
		// Numeric family: hash the float64 bit pattern of the numeric
		// value so INT 3 and FLOAT 3.0 collide as required by Equal, and
		// -0 as +0: the two compare equal.
		mix(2)
		f := v.AsFloat()
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	}
	return h
}

// HashRow hashes a full tuple (used for group-by keys).
func HashRow(r Row) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range r {
		h = (h ^ v.Hash()) * prime64
	}
	return h
}

// RowsEqual reports positional equality of two tuples using SQL equality,
// except that NULLs are treated as equal (group-by semantics).
func RowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() {
			return false
		}
		if !a[i].IsNull() && Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// Width returns the simulated on-disk width of the value in bytes. It is
// used by the storage layer to decide how many rows fit on a page, which in
// turn drives the buffer-cache behaviour central to the paper's speedup
// results.
func (v Value) Width() int {
	switch v.K {
	case KindString:
		return 4 + len(v.S)
	default:
		return 8
	}
}

// RowWidth returns the simulated width of a tuple including a small header.
func RowWidth(r Row) int {
	w := 16 // simulated tuple header (mirrors PostgreSQL's ~23B + alignment)
	for _, v := range r {
		w += v.Width()
	}
	return w
}
