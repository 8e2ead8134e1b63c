package sqltypes

// Binary (de)serialization of ColVec for the internal/proto wire
// format: every payload group is written as a raw little-endian buffer
// so the receiving side can reconstruct the vector by slicing the frame
// payload — no per-value decode loop and no per-value allocation. The
// encoder pads numeric arrays to their natural alignment relative to
// the start of the destination buffer, so a decoder handed that exact
// buffer can reinterpret the bytes in place; when the payload lands at
// an unaligned address anyway (or the host is big-endian) the decoder
// transparently falls back to a copying path.
//
// Vector layout (all integers little-endian; offsets padded relative to
// the start of the buffer handed to DecodeColVec):
//
//	u8  kind           (Kind; KindInterval never appears — the block
//	                    layer ships interval columns as tagged values)
//	u8  enc            0=i64  1=f64  2=plain-string  3=dict  4=dict+RLE
//	u8  hasNulls       0/1
//	u8  reserved       0
//	u32 n              row count
//	n bytes            null flags, one 0/1 byte per row (if hasNulls)
//
//	enc 0/1:  pad8; n×8 bytes of int64 / float64 payload
//	enc 2:    pad4; u32 blobLen; (n+1)×u32 cumulative offsets; blob
//	enc 3:    pad4; u32 dictN; (dictN+1)×u32 offsets; dict blob;
//	          pad4; n×u32 codes
//	enc 4:    pad4; u32 dictN; (dictN+1)×u32 offsets; dict blob;
//	          pad4; u32 runs; runs×u32 runCodes; runs×u32 runEnds
//
// Zone maps (Min/Max) are not shipped: the receiver of a result stream
// never prunes, and leaving them NULL keeps the frame minimal.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Vector encodings on the wire.
const (
	colEncI64  = 0
	colEncF64  = 1
	colEncStr  = 2
	colEncDict = 3
	colEncRLE  = 4
)

// maxVecRows bounds a decoded vector's claimed row count so crafted
// frames cannot demand absurd allocations before validation catches
// them (wire batches are DefaultBatchCapacity rows; this is headroom).
const maxVecRows = 1 << 20

var errColVec = errors.New("sqltypes: malformed column vector")

// hostLittleEndian gates the reinterpret-cast fast paths; big-endian
// hosts take the per-value copy paths and stay wire-compatible.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ColumnKind scans column col of rows and reports the single non-NULL
// kind found. ok is false when the column mixes kinds or contains
// interval values (whose unit string cannot ride a typed array) — such
// columns must be shipped as tagged values. An all-NULL column reports
// (KindNull, true).
func ColumnKind(rows []Row, col int) (Kind, bool) {
	kind := KindNull
	for _, r := range rows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		if v.K == KindInterval {
			return KindNull, false
		}
		if kind == KindNull {
			kind = v.K
		} else if v.K != kind {
			return KindNull, false
		}
	}
	return kind, true
}

// append helpers — plain byte appends; pad aligns relative to the start
// of dst, which the block encoder guarantees is the frame payload start.

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendPad(dst []byte, align int) []byte {
	for len(dst)%align != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// appendI64s appends the raw little-endian image of v.
func appendI64s(dst []byte, v []int64) []byte {
	if len(v) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)...)
	}
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

func appendF64s(dst []byte, v []float64) []byte {
	if len(v) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)...)
	}
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(unsafe.Pointer(&x)))
	}
	return dst
}

func appendI32s(dst []byte, v []int32) []byte {
	if len(v) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)...)
	}
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

// appendStrings appends a string list as cumulative u32 offsets
// followed by the concatenated blob.
func appendStrings(dst []byte, ss []string) []byte {
	var blob int
	for _, s := range ss {
		blob += len(s)
	}
	dst = appendU32(dst, uint32(len(ss)))
	off := uint32(0)
	dst = appendU32(dst, off)
	for _, s := range ss {
		off += uint32(len(s))
		dst = appendU32(dst, off)
	}
	if cap(dst)-len(dst) < blob {
		grown := make([]byte, len(dst), len(dst)+blob)
		copy(grown, dst)
		dst = grown
	}
	for _, s := range ss {
		dst = append(dst, s...)
	}
	return dst
}

// AppendColVec appends the wire form of c to dst and returns the
// extended buffer. Alignment padding is computed relative to dst's
// start, so the decoder must be handed a buffer whose first byte is
// dst's first byte (the proto block layer builds frame payloads that
// way).
func (c *ColVec) AppendColVec(dst []byte) []byte {
	enc := byte(colEncI64)
	switch {
	case c.Kind == KindFloat:
		enc = colEncF64
	case c.RunEnds != nil:
		enc = colEncRLE
	case c.Dict != nil:
		enc = colEncDict
	case c.Str != nil:
		enc = colEncStr
	}
	hasNulls := byte(0)
	if c.Nulls != nil {
		hasNulls = 1
	}
	dst = append(dst, byte(c.Kind), enc, hasNulls, 0)
	dst = appendU32(dst, uint32(c.n))
	if c.Nulls != nil {
		for _, nl := range c.Nulls {
			if nl {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	switch enc {
	case colEncI64:
		dst = appendPad(dst, 8)
		dst = appendI64s(dst, c.I64)
	case colEncF64:
		dst = appendPad(dst, 8)
		dst = appendF64s(dst, c.F64)
	case colEncStr:
		dst = appendPad(dst, 4)
		dst = appendStrings(dst, c.Str)
	case colEncDict:
		dst = appendPad(dst, 4)
		dst = appendStrings(dst, c.Dict)
		dst = appendPad(dst, 4)
		dst = appendI32s(dst, c.Codes)
	case colEncRLE:
		dst = appendPad(dst, 4)
		dst = appendStrings(dst, c.Dict)
		dst = appendPad(dst, 4)
		dst = appendU32(dst, uint32(len(c.RunCodes)))
		dst = appendI32s(dst, c.RunCodes)
		dst = appendI32s(dst, c.RunEnds)
	}
	return dst
}

// ColScratch holds the reusable encode-side state for AppendColumn so a
// sending loop pays no per-batch allocations for dictionary building.
// One scratch per stream; not safe for concurrent use.
type ColScratch struct {
	codes    []int32
	dict     []string
	runCodes []int32
	runEnds  []int32
	codeOf   map[string]int32
}

// AppendColumn appends the wire form of column col — the same bytes
// BuildColVec(kind).AppendColVec would produce — directly from the rows,
// in one analysis pass and one emit pass with no intermediate vector.
// This is the sending loop's hot path: BuildColVec materializes typed
// slices only to copy them into the frame, which profiles as a third of
// a stream's CPU. Returns ok=false (dst untouched) for columns the
// vector layout cannot carry: mixed kinds or interval values.
func AppendColumn(dst []byte, rows []Row, col int, sc *ColScratch) ([]byte, bool) {
	kind := KindNull
	hasNulls := byte(0)
	for _, r := range rows {
		v := r[col]
		if v.IsNull() {
			hasNulls = 1
			continue
		}
		if v.K == KindInterval {
			return dst, false
		}
		if kind == KindNull {
			kind = v.K
		} else if v.K != kind {
			return dst, false
		}
	}
	if kind == KindString {
		return appendStringColumn(dst, rows, col, hasNulls, sc), true
	}
	enc := byte(colEncI64)
	if kind == KindFloat {
		enc = colEncF64
	}
	dst = append(dst, byte(kind), enc, hasNulls, 0)
	dst = appendU32(dst, uint32(len(rows)))
	if hasNulls == 1 {
		dst = appendNullFlags(dst, rows, col)
	}
	dst = appendPad(dst, 8)
	if kind == KindFloat {
		for _, r := range rows {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r[col].F))
		}
	} else {
		for _, r := range rows {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(r[col].I))
		}
	}
	return dst, true
}

func appendNullFlags(dst []byte, rows []Row, col int) []byte {
	for _, r := range rows {
		if r[col].IsNull() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// appendStringColumn mirrors buildString's encoding choice — dictionary
// (with RLE when run-heavy) below dictMaxNDV distinct values, plain
// otherwise — emitting straight into dst. NULL rows contribute "" to
// the stream, exactly as buildString reads them.
func appendStringColumn(dst []byte, rows []Row, col int, hasNulls byte, sc *ColScratch) []byte {
	if sc == nil {
		sc = &ColScratch{}
	}
	if sc.codeOf == nil {
		sc.codeOf = make(map[string]int32, dictMaxNDV)
	} else {
		clear(sc.codeOf)
	}
	sc.codes = sc.codes[:0]
	sc.dict = sc.dict[:0]
	runs := 1
	plain := false
	var prev int32
	for i, r := range rows {
		s := r[col].S
		code, ok := sc.codeOf[s]
		if !ok {
			if len(sc.dict) >= dictMaxNDV {
				plain = true
				break
			}
			code = int32(len(sc.dict))
			sc.dict = append(sc.dict, s)
			sc.codeOf[s] = code
		}
		sc.codes = append(sc.codes, code)
		if i > 0 && code != prev {
			runs++
		}
		prev = code
	}
	n := len(rows)
	if plain {
		dst = append(dst, byte(KindString), colEncStr, hasNulls, 0)
		dst = appendU32(dst, uint32(n))
		if hasNulls == 1 {
			dst = appendNullFlags(dst, rows, col)
		}
		dst = appendPad(dst, 4)
		dst = appendU32(dst, uint32(n))
		off := uint32(0)
		dst = appendU32(dst, off)
		for _, r := range rows {
			off += uint32(len(r[col].S))
			dst = appendU32(dst, off)
		}
		for _, r := range rows {
			dst = append(dst, r[col].S...)
		}
		return dst
	}
	enc := byte(colEncDict)
	if n > 0 && runs*2 < n {
		enc = colEncRLE
	}
	dst = append(dst, byte(KindString), enc, hasNulls, 0)
	dst = appendU32(dst, uint32(n))
	if hasNulls == 1 {
		dst = appendNullFlags(dst, rows, col)
	}
	dst = appendPad(dst, 4)
	dst = appendStrings(dst, sc.dict)
	dst = appendPad(dst, 4)
	if enc == colEncDict {
		return appendI32s(dst, sc.codes)
	}
	sc.runCodes = sc.runCodes[:0]
	sc.runEnds = sc.runEnds[:0]
	for i, code := range sc.codes {
		if i == 0 || code != sc.runCodes[len(sc.runCodes)-1] {
			sc.runCodes = append(sc.runCodes, code)
			sc.runEnds = append(sc.runEnds, int32(i+1))
		} else {
			sc.runEnds[len(sc.runEnds)-1] = int32(i + 1)
		}
	}
	dst = appendU32(dst, uint32(len(sc.runCodes)))
	dst = appendI32s(dst, sc.runCodes)
	dst = appendI32s(dst, sc.runEnds)
	return dst
}

// colReader walks a decode buffer with sticky-error bounds checking:
// every getter returns a zero value once the buffer is exhausted, so
// arbitrary (fuzzed) input can never index out of range.
type colReader struct {
	buf []byte
	off int
	err error
}

func (r *colReader) fail() {
	if r.err == nil {
		r.err = errColVec
	}
}

func (r *colReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *colReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *colReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *colReader) pad(align int) {
	if rem := r.off % align; rem != 0 {
		r.take(align - rem)
	}
}

// i64View reinterprets b as n int64s, zero-copy when the bytes are
// 8-aligned on a little-endian host.
func i64View(b []byte, n int) []int64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func f64View(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		u := binary.LittleEndian.Uint64(b[i*8:])
		out[i] = *(*float64)(unsafe.Pointer(&u))
	}
	return out
}

func i32View(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// unsafeString views b as a string without copying. The caller must
// guarantee b is never mutated afterwards — decode buffers are owned by
// the decoded result and are not recycled.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// readStrings decodes an offsets+blob string list of expected length
// want (-1 accepts any) into dst's storage. Contents alias the decode
// buffer.
func (r *colReader) readStrings(want int, dst []string) []string {
	n := int(r.u32())
	if r.err != nil || n > maxVecRows || (want >= 0 && n != want) {
		r.fail()
		return nil
	}
	offs := r.take((n + 1) * 4)
	if offs == nil {
		return nil
	}
	blobLen := int(binary.LittleEndian.Uint32(offs[n*4:]))
	blob := r.take(blobLen)
	if r.err != nil || binary.LittleEndian.Uint32(offs) != 0 {
		r.fail()
		return nil
	}
	out := dst[:0]
	if cap(out) < n {
		out = make([]string, n)
	}
	out = out[:n]
	prev := uint32(0)
	for i := 0; i < n; i++ {
		end := binary.LittleEndian.Uint32(offs[(i+1)*4:])
		if end < prev || int(end) > blobLen {
			r.fail()
			return nil
		}
		out[i] = unsafeString(blob[prev:end])
		prev = end
	}
	return out
}

// DecodeColVec reconstructs one vector from the wire form at the start
// of buf, returning the vector and the number of bytes consumed. The
// result aliases buf (typed-array views and string contents), so buf
// must stay immutable for the vector's lifetime. Malformed input of any
// shape returns an error, never a panic, and every dictionary code and
// run boundary is validated so ColVec.Value can be called safely on the
// result. Min/Max zone maps are not transported and stay NULL.
func DecodeColVec(buf []byte) (*ColVec, int, error) {
	return DecodeColVecOffset(buf, 0)
}

// DecodeColVecOffset decodes a vector that begins at buf[off], keeping
// alignment padding relative to buf's start — the encoder's reference
// point when vectors are appended mid-buffer (the proto block layer).
// Returns the vector and the bytes consumed from off.
func DecodeColVecOffset(buf []byte, off int) (*ColVec, int, error) {
	c := &ColVec{}
	n, err := DecodeColVecInto(buf, off, c)
	if err != nil {
		return nil, 0, err
	}
	return c, n, nil
}

// DecodeColVecInto is DecodeColVecOffset into c, whose previous contents
// it replaces: a decoder that fills one vector after another reuses the
// storage of its string list.
func DecodeColVecInto(buf []byte, off int, c *ColVec) (int, error) {
	if off < 0 || off > len(buf) {
		return 0, errColVec
	}
	r := &colReader{buf: buf, off: off}
	kind := Kind(r.u8())
	enc := r.u8()
	hasNulls := r.u8()
	r.u8() // reserved
	n := int(r.u32())
	if r.err != nil || n > maxVecRows || hasNulls > 1 {
		return 0, errColVec
	}
	switch {
	case kind == KindFloat && enc == colEncF64:
	case kind == KindString && (enc == colEncStr || enc == colEncDict || enc == colEncRLE):
	case (kind == KindNull || kind == KindInt || kind == KindDate || kind == KindBool) && enc == colEncI64:
	default:
		return 0, fmt.Errorf("%w: kind %d enc %d", errColVec, kind, enc)
	}
	*c = ColVec{Kind: kind, n: n, strs: c.strs}
	if hasNulls == 1 && n > 0 {
		nb := r.take(n)
		if nb == nil {
			return 0, errColVec
		}
		for _, b := range nb {
			if b > 1 {
				return 0, errColVec
			}
		}
		// A 0/1 byte is a valid Go bool, so the flags can be viewed in
		// place on any host (bools have no endianness).
		c.Nulls = unsafe.Slice((*bool)(unsafe.Pointer(&nb[0])), n)
	}
	switch enc {
	case colEncI64:
		r.pad(8)
		b := r.take(n * 8)
		if b == nil && n > 0 {
			return 0, errColVec
		}
		c.I64 = i64View(b, n)
	case colEncF64:
		r.pad(8)
		b := r.take(n * 8)
		if b == nil && n > 0 {
			return 0, errColVec
		}
		c.F64 = f64View(b, n)
	case colEncStr:
		r.pad(4)
		c.strs = r.readStrings(n, c.strs)
		c.Str = c.strs
	case colEncDict:
		r.pad(4)
		c.strs = r.readStrings(-1, c.strs)
		c.Dict = c.strs
		r.pad(4)
		b := r.take(n * 4)
		if r.err != nil {
			return 0, errColVec
		}
		c.Codes = i32View(b, n)
		for _, code := range c.Codes {
			if code < 0 || int(code) >= len(c.Dict) {
				return 0, errColVec
			}
		}
	case colEncRLE:
		r.pad(4)
		c.strs = r.readStrings(-1, c.strs)
		c.Dict = c.strs
		r.pad(4)
		runs := int(r.u32())
		if r.err != nil || runs > n || (n > 0 && runs == 0) {
			return 0, errColVec
		}
		rc := r.take(runs * 4)
		re := r.take(runs * 4)
		if r.err != nil {
			return 0, errColVec
		}
		c.RunCodes = i32View(rc, runs)
		c.RunEnds = i32View(re, runs)
		prev := int32(0)
		for i := range c.RunCodes {
			if c.RunCodes[i] < 0 || int(c.RunCodes[i]) >= len(c.Dict) {
				return 0, errColVec
			}
			if c.RunEnds[i] <= prev {
				return 0, errColVec
			}
			prev = c.RunEnds[i]
		}
		if runs > 0 && int(prev) != n {
			return 0, errColVec
		}
	}
	if r.err != nil {
		return 0, errColVec
	}
	return r.off - off, nil
}
