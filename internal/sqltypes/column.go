package sqltypes

// Column-major vectors: the in-memory layout of one relation column
// across a segment of rows. Fixed-width kinds (ints, floats, dates,
// booleans) are stored as flat typed slices; string columns choose
// between a plain slice and dictionary encoding (with run-length
// compression of the code stream when the data is run-heavy, as sorted
// or semi-sorted low-NDV columns are). Every vector carries its own
// min/max zone map over the non-NULL values, which is what segment
// pruning reads.

// dictMaxNDV bounds dictionary encoding: columns with more distinct
// strings than this stay plain (the dictionary would not pay for the
// code stream). 256 matches the classic one-byte-code sweet spot even
// though codes are stored as int32 here.
const dictMaxNDV = 256

// ColVec is one column of a segment in columnar form.
type ColVec struct {
	Kind Kind

	// Exactly one of the payload groups below is active, per Kind and
	// chosen encoding.
	I64 []int64   // ints, dates, booleans, intervals (count part)
	F64 []float64 // floats
	Str []string  // plain string payload

	// Dictionary encoding (low-NDV strings): Dict holds the distinct
	// values in first-appearance order, Codes the per-row indexes.
	Dict  []string
	Codes []int32

	// Run-length compression of the code stream, used instead of Codes
	// when the column is run-heavy: RunCodes[i] repeats until row
	// RunEnds[i] (exclusive, cumulative).
	RunCodes []int32
	RunEnds  []int32

	// Nulls marks NULL rows; nil when the column has none.
	Nulls []bool

	// Min and Max are the zone map: the extremes of the non-NULL values
	// under Compare. Both are NULL values when every row is NULL.
	Min, Max Value

	n int
	// strs is the string list's storage, kept across DecodeColVecInto
	// calls for its capacity; Str or Dict is a view of it when active.
	strs []string
}

// Len returns the number of rows in the vector.
func (c *ColVec) Len() int { return c.n }

// IsDict reports whether the vector is dictionary-encoded.
func (c *ColVec) IsDict() bool { return c.Dict != nil }

// IsRLE reports whether the dictionary code stream is run-length
// compressed.
func (c *ColVec) IsRLE() bool { return c.RunEnds != nil }

// Value reconstructs row i as a Value. Scans stream pre-built row views
// instead (see storage.Segment); this accessor serves encodings, tests
// and tooling.
func (c *ColVec) Value(i int) Value {
	if c.Nulls != nil && c.Nulls[i] {
		return Null()
	}
	switch c.Kind {
	case KindFloat:
		return NewFloat(c.F64[i])
	case KindString:
		if c.Dict != nil {
			return NewString(c.Dict[c.code(i)])
		}
		return NewString(c.Str[i])
	default:
		return Value{K: c.Kind, I: c.I64[i]}
	}
}

// code resolves row i's dictionary code through either the flat or the
// run-length form.
func (c *ColVec) code(i int) int32 {
	if c.RunEnds == nil {
		return c.Codes[i]
	}
	lo, hi := 0, len(c.RunEnds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int32(i) < c.RunEnds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return c.RunCodes[lo]
}

// EncodedBytes returns the simulated size of the vector: the storage
// accounting the segment-bytes gauge reports. Fixed-width values cost 8
// bytes, plain strings their Value width, dictionary codes 4 bytes per
// row (or 8 per run under RLE) plus the dictionary itself, and a null
// bitmap one byte per row.
func (c *ColVec) EncodedBytes() int64 {
	var b int64
	switch {
	case c.RunEnds != nil:
		b = int64(len(c.RunEnds)) * 8
	case c.Codes != nil:
		b = int64(len(c.Codes)) * 4
	case c.Str != nil:
		for _, s := range c.Str {
			b += int64(4 + len(s))
		}
	case c.F64 != nil:
		b = int64(len(c.F64)) * 8
	default:
		b = int64(len(c.I64)) * 8
	}
	for _, s := range c.Dict {
		b += int64(4 + len(s))
	}
	if c.Nulls != nil {
		b += int64(len(c.Nulls))
	}
	return b
}

// BuildColVec converts column col of rows into columnar form, choosing
// the encoding and computing the zone map in one pass over the data.
// The min/max tracking is specialized per kind — the generic Compare is
// a measurable per-row cost on the wire encode path — falling back to
// Compare only for the stray mixed-kind value so the ordering semantics
// stay identical.
func BuildColVec(kind Kind, rows []Row, col int) *ColVec {
	c := &ColVec{Kind: kind, n: len(rows)}
	var nulls []bool
	markNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, len(rows))
		}
		nulls[i] = true
	}
	// zone extends the zone map the slow generic way.
	zone := func(v Value) {
		if c.Min.IsNull() || Compare(v, c.Min) < 0 {
			c.Min = v
		}
		if c.Max.IsNull() || Compare(v, c.Max) > 0 {
			c.Max = v
		}
	}
	// fast reports whether v and both current extremes are exactly the
	// expected kind, so the typed comparison below agrees with Compare.
	// The first non-NULL value (extremes still KindNull) and any stray
	// mixed-kind value route through zone instead.
	fast := func(v Value) bool {
		return v.K == kind && c.Min.K == kind && c.Max.K == kind
	}
	switch kind {
	case KindString:
		for i, r := range rows {
			v := r[col]
			switch {
			case v.IsNull():
				markNull(i)
			case !fast(v):
				zone(v)
			case v.S < c.Min.S:
				c.Min = v
			case v.S > c.Max.S:
				c.Max = v
			}
		}
		c.Nulls = nulls
		c.buildString(rows, col)
		return c
	case KindFloat:
		c.F64 = make([]float64, len(rows))
		for i, r := range rows {
			v := r[col]
			switch {
			case v.IsNull():
				markNull(i)
				continue
			case !fast(v):
				zone(v)
			case v.F < c.Min.F:
				c.Min = v
			case v.F > c.Max.F:
				c.Max = v
			}
			c.F64[i] = v.F
		}
		c.Nulls = nulls
		return c
	default:
		c.I64 = make([]int64, len(rows))
		for i, r := range rows {
			v := r[col]
			switch {
			case v.IsNull():
				markNull(i)
				continue
			case !fast(v):
				zone(v)
			case v.I < c.Min.I:
				c.Min = v
			case v.I > c.Max.I:
				c.Max = v
			}
			c.I64[i] = v.I
		}
		c.Nulls = nulls
		return c
	}
}

// buildString picks plain, dictionary or dictionary+RLE form for a
// string column.
func (c *ColVec) buildString(rows []Row, col int) {
	codeOf := make(map[string]int32, dictMaxNDV)
	var dict []string
	codes := make([]int32, len(rows))
	runs := 1
	for i, r := range rows {
		s := r[col].S
		code, ok := codeOf[s]
		if !ok {
			if len(dict) >= dictMaxNDV {
				// Too many distinct values: fall back to plain storage.
				c.Str = make([]string, len(rows))
				for j, rr := range rows {
					c.Str[j] = rr[col].S
				}
				return
			}
			code = int32(len(dict))
			dict = append(dict, s)
			codeOf[s] = code
		}
		codes[i] = code
		if i > 0 && codes[i] != codes[i-1] {
			runs++
		}
	}
	c.Dict = dict
	// RLE pays when a run entry (8B) replaces its run of 4B codes, i.e.
	// when the average run length exceeds 2.
	if len(rows) > 0 && runs*2 < len(rows) {
		c.RunCodes = make([]int32, 0, runs)
		c.RunEnds = make([]int32, 0, runs)
		for i := 0; i < len(codes); i++ {
			if len(c.RunCodes) == 0 || codes[i] != c.RunCodes[len(c.RunCodes)-1] {
				c.RunCodes = append(c.RunCodes, codes[i])
				c.RunEnds = append(c.RunEnds, int32(i+1))
			} else {
				c.RunEnds[len(c.RunEnds)-1] = int32(i + 1)
			}
		}
		return
	}
	c.Codes = codes
}
