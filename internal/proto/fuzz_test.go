package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"apuama/internal/cache"
	"apuama/internal/sqltypes"
)

// FuzzFrameDecode drives arbitrary bytes through every wire decoder —
// none may panic or allocate absurdly — and, when the input is long
// enough to seed a structured batch, round-trips it through
// encodeBlock/decodeBlock checking bit-identical reconstruction
// (floats compared by bit pattern, not equality, so NaN payloads and
// negative zero count too).
func FuzzFrameDecode(f *testing.F) {
	// Seed the corpus with real encodings of the shapes the protocol
	// ships: every frame payload kind plus blocks exercising each column
	// encoding (i64, f64, plain/dict/RLE strings, nulls, tagged).
	f.Add(encodeBlock(nil, 7, q1Rows(200), nil))
	f.Add(encodeBlock(nil, 1, intRows(300), nil))
	f.Add(encodeBlock(nil, 2, nil, nil))
	f.Add(encodeQuery(32, cache.Control{NoCache: true, MaxStaleEpochs: 9}, "select l_returnflag from lineitem"))
	f.Add(encodeHeader([]string{"a", "b", "c"}))
	f.Add(encodeEnd(42, nil))
	f.Add(encodeEnd(0, errBadFrame))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Raw decoders: arbitrary input errors, never panics. The
		// decoded rows may alias data, so nothing mutates it afterwards.
		if rows, err := decodeBlock(data); err == nil {
			for _, r := range rows {
				for _, v := range r {
					_ = v.K
				}
			}
		}
		decodeQuery(data)
		decodeExec(data)
		decodeHeader(data)
		decodeEnd(data)
		decodeCredit(data)
		sqltypes.DecodeColVec(data)
		br := bufio.NewReader(bytes.NewReader(data))
		readFrame(br)

		// 2. Structured round-trip: derive a batch from the fuzz input,
		// encode, decode, compare bit-identically.
		rows := rowsFromSeed(data)
		if rows == nil {
			return
		}
		ncols := len(rows[0])
		enc := encodeBlock(nil, ncols, rows, nil)
		got, err := decodeBlock(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if len(got) != len(rows) {
			t.Fatalf("rows: got %d want %d", len(got), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				w, g := rows[i][j], got[i][j]
				if g.K != w.K || g.I != w.I || g.S != w.S ||
					math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("row %d col %d: got %+v want %+v", i, j, g, w)
				}
			}
		}
	})
}

// rowsFromSeed deterministically builds a batch from fuzz bytes: the
// first bytes pick the shape, the rest feed values. Returns nil when
// the input is too short to seed anything.
func rowsFromSeed(data []byte) []sqltypes.Row {
	if len(data) < 8 {
		return nil
	}
	ncols := 1 + int(data[0]%5)
	nrows := 1 + int(binary.LittleEndian.Uint16(data[1:]))%512
	data = data[3:]
	byteAt := func(i int) byte { return data[i%len(data)] }
	u64At := func(i int) uint64 {
		var b [8]byte
		for k := range b {
			b[k] = byteAt(i + k)
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	rows := make([]sqltypes.Row, nrows)
	for r := 0; r < nrows; r++ {
		row := make(sqltypes.Row, ncols)
		for c := 0; c < ncols; c++ {
			seed := r*ncols + c
			switch byteAt(seed) % 8 {
			case 0:
				row[c] = sqltypes.Value{} // NULL
			case 1:
				row[c] = sqltypes.NewInt(int64(u64At(seed)))
			case 2:
				// Any bit pattern, including NaN/Inf/-0.
				row[c] = sqltypes.NewFloat(math.Float64frombits(u64At(seed)))
			case 3:
				n := int(byteAt(seed+1)) % 16
				row[c] = sqltypes.NewString(string(data[seed%len(data):][:min(n, len(data)-seed%len(data))]))
			case 4:
				// Low-NDV string: exercises dictionary/RLE encodings.
				row[c] = sqltypes.NewString([]string{"A", "N", "R"}[int(byteAt(seed+2))%3])
			case 5:
				row[c] = sqltypes.NewDate(int64(u64At(seed)) % 100000)
			case 6:
				row[c] = sqltypes.NewBool(byteAt(seed+3)%2 == 1)
			case 7:
				row[c] = sqltypes.NewInterval(int64(u64At(seed)), []string{"day", "month", "year"}[int(byteAt(seed+4))%3])
			}
		}
		rows[r] = row
	}
	return rows
}

// intRows builds a single-column all-int batch (pure I64 vector path).
func intRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i * 3))}
	}
	return rows
}

func q1Rows(n int) []sqltypes.Row { return q1Result(n).Rows }
