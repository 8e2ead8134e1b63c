package proto

// Batch blocks: the fBatch payload. A block is a row batch transposed
// into ColVec columnar form — typed little-endian arrays with
// dictionary/RLE string compression — so the receiving side
// reconstructs rows by slicing the frame payload instead of decoding
// values one by one. Columns the columnar layout cannot carry (interval
// values, whose unit string rides outside the typed array, or columns
// mixing kinds across rows) fall back to a tagged-value stream; both
// forms coexist per block, chosen column by column.
//
// Block layout (little-endian; the block always starts a frame payload,
// which is what ColVec alignment padding is relative to):
//
//	u16 ncols | u16 reserved | u32 nrows
//	per column: u8 mode — 0 = ColVec (sqltypes wire form),
//	                      1 = tagged values (per row: u8 kind + payload)
//
// Tagged value payloads: null — nothing; int/date/bool — i64; float —
// u64 bits; string — u32 len + bytes; interval — i64 count + u8 unit
// len + unit.

import (
	"encoding/binary"
	"math"
	"sync"
	"unsafe"

	"apuama/internal/sqltypes"
)

const (
	colModeVec    = 0
	colModeTagged = 1
)

// maxBlockValues bounds nrows×ncols of a decoded block: RLE lets a tiny
// payload legitimately claim many rows, so the row-count claim alone
// cannot be trusted against the payload size. Wire batches are
// DefaultBatchCapacity rows; this is generous headroom.
const maxBlockValues = 1 << 20

// encodeBlock appends the block form of rows (all the same width) to
// dst and returns the extended buffer. dst must be empty (the block
// computes alignment from the buffer start); its capacity — and sc, the
// dictionary-building scratch (nil allocates per call) — are reused
// across batches by the sending loop.
func encodeBlock(dst []byte, cols int, rows []sqltypes.Row, sc *sqltypes.ColScratch) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(cols))
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	if len(rows) == 0 {
		return dst
	}
	for col := 0; col < cols; col++ {
		if out, ok := sqltypes.AppendColumn(append(dst, colModeVec), rows, col, sc); ok {
			dst = out
			continue
		}
		dst = append(dst, colModeTagged)
		dst = appendTaggedColumn(dst, rows, col)
	}
	return dst
}

func appendTaggedColumn(dst []byte, rows []sqltypes.Row, col int) []byte {
	for _, r := range rows {
		v := r[col]
		dst = append(dst, byte(v.K))
		switch v.K {
		case sqltypes.KindNull:
		case sqltypes.KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case sqltypes.KindString:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.S)))
			dst = append(dst, v.S...)
		case sqltypes.KindInterval:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
			dst = append(dst, byte(len(v.S)))
			dst = append(dst, v.S...)
		default: // int, date, bool
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
		}
	}
	return dst
}

// rowBufs holds a streaming cursor's reusable decode buffers: the
// Value slab and row-header slice batches materialize into, and the
// column vector each column decodes through. Reusing them makes a batch's
// rows invalid once the next batch decodes — the cursor contract — but
// Values copied out of a row stay valid forever, because string contents
// live in the block's own immutable string, not in these buffers or the
// (recycled) frame payload.
type rowBufs struct {
	vals []sqltypes.Value
	rows []sqltypes.Row
	vec  sqltypes.ColVec
}

// bufsPool shares decode buffers across cursors: without it every
// single-batch query would pay a fresh slab allocation, which dominates
// the per-query cost of small multiplexed queries.
var bufsPool = sync.Pool{New: func() any { return new(rowBufs) }}

// decodeBlock is decodeBlockInto with fresh buffers: the returned rows
// are stable for as long as the caller keeps them.
func decodeBlock(payload []byte) ([]sqltypes.Row, error) {
	return decodeBlockInto(payload, nil)
}

// decodeBlockInto reconstructs the rows of one block. Rows are
// materialized into a single Value slab (one allocation for the whole
// block, not one per value). The rows keep no reference into payload:
// numbers are copied out of the vectors, and the string contents of every
// string-bearing column are copied once per block into one immutable
// string the values slice (ownStrings), so the caller may recycle payload
// as soon as this returns. A non-nil bufs is recycled when capacity
// allows — every slab slot is overwritten before returning, so no stale
// values leak between batches. Arbitrary input errors, never panics.
func decodeBlockInto(payload []byte, bufs *rowBufs) ([]sqltypes.Row, error) {
	if len(payload) < 8 {
		return nil, errBadBlock
	}
	ncols := int(binary.LittleEndian.Uint16(payload))
	nrows := int(binary.LittleEndian.Uint32(payload[4:]))
	if nrows == 0 {
		return nil, nil
	}
	if ncols == 0 || nrows*ncols > maxBlockValues {
		return nil, errBadBlock
	}
	// ColVec alignment padding is relative to the frame payload start,
	// so the decoder walks the payload itself with an absolute offset.
	off := 8
	var vals []sqltypes.Value
	var rows []sqltypes.Row
	vec := new(sqltypes.ColVec)
	if bufs != nil {
		vec = &bufs.vec
	}
	var spanArr [8]strSpan
	spans := spanArr[:0]
	if bufs != nil && cap(bufs.vals) >= nrows*ncols && cap(bufs.rows) >= nrows {
		vals = bufs.vals[:nrows*ncols]
		rows = bufs.rows[:nrows]
	} else {
		vals = make([]sqltypes.Value, nrows*ncols)
		rows = make([]sqltypes.Row, nrows)
		if bufs != nil {
			bufs.vals, bufs.rows = vals, rows
		}
	}
	for i := range rows {
		rows[i] = sqltypes.Row(vals[i*ncols : (i+1)*ncols : (i+1)*ncols])
	}
	for col := 0; col < ncols; col++ {
		if off >= len(payload) {
			return nil, errBadBlock
		}
		mode := payload[off]
		off++
		switch mode {
		case colModeVec:
			n, err := sqltypes.DecodeColVecInto(payload, off, vec)
			if err != nil {
				return nil, err
			}
			if vec.Len() != nrows {
				return nil, errBadBlock
			}
			off += n
			fillColumn(vals, ncols, col, vec)
			switch {
			case vec.Str != nil:
				spans = append(spans, spanOf(payload, col, vec.Str))
			case vec.Dict != nil:
				spans = append(spans, spanOf(payload, col, vec.Dict))
			}
		case colModeTagged:
			n, err := decodeTaggedColumn(vals, ncols, col, nrows, payload[off:])
			if err != nil {
				return nil, err
			}
			spans = append(spans, strSpan{col: col, lo: off, hi: off + n})
			off += n
		default:
			return nil, errBadBlock
		}
	}
	if off != len(payload) {
		return nil, errBadBlock
	}
	ownStrings(payload, vals, ncols, spans)
	return rows, nil
}

// strSpan is the range [lo, hi) of a block's payload that holds the
// string contents of column col.
type strSpan struct{ col, lo, hi int }

// spanOf is the span of ss, strings that alias payload in order (a
// vector's plain strings or dictionary): from the first non-empty one to
// the end of the last.
func spanOf(payload []byte, col int, ss []string) strSpan {
	sp := strSpan{col: col}
	for _, s := range ss {
		if len(s) > 0 {
			sp.lo = offsetIn(payload, s)
			break
		}
	}
	for i := len(ss) - 1; i >= 0; i-- {
		if len(ss[i]) > 0 {
			sp.hi = offsetIn(payload, ss[i]) + len(ss[i])
			break
		}
	}
	return sp
}

// offsetIn is where in payload s, a view into it, starts.
func offsetIn(payload []byte, s string) int {
	return int(uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(&payload[0])))
}

// ownStrings copies the string contents the decoded values view in
// payload — the spans — into one immutable string, and re-points every
// such value at its copy: one allocation per block, and the values no
// longer hold the payload.
func ownStrings(payload []byte, vals []sqltypes.Value, ncols int, spans []strSpan) {
	total := 0
	for _, sp := range spans {
		total += max(sp.hi-sp.lo, 0)
	}
	if total == 0 {
		return
	}
	buf := make([]byte, 0, total)
	for _, sp := range spans {
		if sp.hi > sp.lo {
			buf = append(buf, payload[sp.lo:sp.hi]...)
		}
	}
	own := unsafe.String(&buf[0], total)
	at := 0
	for _, sp := range spans {
		if sp.hi <= sp.lo {
			continue
		}
		for i := sp.col; i < len(vals); i += ncols {
			if v := &vals[i]; len(v.S) > 0 {
				o := at + offsetIn(payload, v.S) - sp.lo
				v.S = own[o : o+len(v.S)]
			}
		}
		at += sp.hi - sp.lo
	}
}

// fillColumn scatters a decoded vector down column col of the value
// slab. The kind switch is hoisted out of the row loop so each column
// fills with a tight typed loop; dictionary/RLE strings resolve through
// a sequential run cursor instead of per-row binary search.
func fillColumn(vals []sqltypes.Value, ncols, col int, vec *sqltypes.ColVec) {
	n := vec.Len()
	switch {
	case vec.F64 != nil:
		for i := 0; i < n; i++ {
			vals[i*ncols+col] = sqltypes.Value{K: sqltypes.KindFloat, F: vec.F64[i]}
		}
	case vec.Str != nil:
		for i := 0; i < n; i++ {
			vals[i*ncols+col] = sqltypes.Value{K: sqltypes.KindString, S: vec.Str[i]}
		}
	case vec.RunEnds != nil:
		run := 0
		for i := 0; i < n; i++ {
			for int32(i) >= vec.RunEnds[run] {
				run++
			}
			vals[i*ncols+col] = sqltypes.Value{K: sqltypes.KindString, S: vec.Dict[vec.RunCodes[run]]}
		}
	case vec.Dict != nil:
		for i := 0; i < n; i++ {
			vals[i*ncols+col] = sqltypes.Value{K: sqltypes.KindString, S: vec.Dict[vec.Codes[i]]}
		}
	default:
		k := vec.Kind
		for i := 0; i < n; i++ {
			vals[i*ncols+col] = sqltypes.Value{K: k, I: vec.I64[i]}
		}
	}
	if vec.Nulls != nil {
		for i := 0; i < n; i++ {
			if vec.Nulls[i] {
				vals[i*ncols+col] = sqltypes.Value{}
			}
		}
	}
}

// decodeTaggedColumn decodes nrows tagged values into column col,
// returning the bytes consumed. String contents alias p.
func decodeTaggedColumn(vals []sqltypes.Value, ncols, col, nrows int, p []byte) (int, error) {
	off := 0
	for i := 0; i < nrows; i++ {
		if off >= len(p) {
			return 0, errBadBlock
		}
		k := sqltypes.Kind(p[off])
		off++
		v := sqltypes.Value{K: k}
		switch k {
		case sqltypes.KindNull:
		case sqltypes.KindFloat:
			if len(p)-off < 8 {
				return 0, errBadBlock
			}
			v.F = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		case sqltypes.KindString:
			if len(p)-off < 4 {
				return 0, errBadBlock
			}
			l := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if l < 0 || len(p)-off < l {
				return 0, errBadBlock
			}
			v.S = viewString(p[off : off+l])
			off += l
		case sqltypes.KindInterval:
			if len(p)-off < 9 {
				return 0, errBadBlock
			}
			v.I = int64(binary.LittleEndian.Uint64(p[off:]))
			ul := int(p[off+8])
			off += 9
			if len(p)-off < ul {
				return 0, errBadBlock
			}
			v.S = viewString(p[off : off+ul])
			off += ul
		case sqltypes.KindInt, sqltypes.KindDate, sqltypes.KindBool:
			if len(p)-off < 8 {
				return 0, errBadBlock
			}
			v.I = int64(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		default:
			return 0, errBadBlock
		}
		vals[i*ncols+col] = v
	}
	return off, nil
}

// viewString views b as a string without copying, until ownStrings
// copies the block's strings out of the decode buffer.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
