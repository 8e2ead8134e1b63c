package proto

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/sqltypes"
)

// fakeHandler serves a deterministic synthetic result: "rows N" returns
// N rows shaped like a TPC-H Q1 result line (int key, float aggregates,
// low-NDV string, date), "boom" fails, anything else returns a small
// fixed result. It implements ContextHandler so cancellation and
// cache-control bits are observable.
type fakeHandler struct {
	mu       sync.Mutex
	execs    []string
	lastCtl  string // "nocache" / "maxstale=N" / ""
	queryErr error
	results  map[int]*engine.Result

	// block, when non-nil, is closed to release queries that wait on it
	// (for cancellation tests); waiting queries honour ctx.
	block chan struct{}
}

func (f *fakeHandler) Query(q string) (*engine.Result, error) {
	return f.QueryContext(context.Background(), q)
}

func (f *fakeHandler) QueryContext(ctx context.Context, q string) (*engine.Result, error) {
	f.mu.Lock()
	block := f.block
	qerr := f.queryErr
	f.mu.Unlock()
	if qerr != nil {
		return nil, qerr
	}
	if strings.Contains(q, "boom") {
		return nil, fmt.Errorf("synthetic failure")
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	n := 3
	if _, after, ok := strings.Cut(q, "rows "); ok {
		if v, err := strconv.Atoi(strings.Fields(after)[0]); err == nil {
			n = v
		}
	}
	// Cache by size: the server only reads results, and rebuilding a
	// 40k-row batch per query would dominate the stream benchmarks.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.results == nil {
		f.results = make(map[int]*engine.Result)
	}
	res, ok := f.results[n]
	if !ok {
		res = q1Result(n)
		f.results[n] = res
	}
	return res, nil
}

func (f *fakeHandler) Exec(q string) (int64, error) {
	if strings.Contains(q, "boom") {
		return 0, fmt.Errorf("synthetic failure")
	}
	f.mu.Lock()
	f.execs = append(f.execs, q)
	f.mu.Unlock()
	return int64(len(q)), nil
}

// q1Result builds an n-row result mixing the column shapes the codec
// must carry: ints, floats, dictionary-friendly strings, dates, NULLs,
// a mixed-kind column and an interval column (both tagged fallbacks).
func q1Result(n int) *engine.Result {
	res := &engine.Result{
		Cols: []string{"l_quantity", "sum_charge", "l_returnflag", "l_shipdate", "nullable", "mixed", "iv"},
	}
	flags := []string{"A", "N", "R"}
	for i := 0; i < n; i++ {
		mixed := sqltypes.NewInt(int64(i))
		if i%2 == 1 {
			mixed = sqltypes.NewString("odd")
		}
		nullable := sqltypes.NewFloat(float64(i) * 1.5)
		if i%3 == 0 {
			nullable = sqltypes.Value{}
		}
		res.Rows = append(res.Rows, sqltypes.Row{
			sqltypes.NewInt(int64(i * 7)),
			sqltypes.NewFloat(float64(i) * 1.0001),
			sqltypes.NewString(flags[i%len(flags)]),
			sqltypes.NewDate(int64(9000 + i/100)),
			nullable,
			mixed,
			sqltypes.NewInterval(int64(i), "day"),
		})
	}
	return res
}

func startPair(t *testing.T, opts Options) (*Server, *Client, *fakeHandler) {
	t.Helper()
	h := &fakeHandler{}
	s, err := Serve("127.0.0.1:0", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c, h
}

// sameResult compares two results bit-identically (floats by bits, not
// tolerance).
func sameResult(t *testing.T, got, want *engine.Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("cols: got %v want %v", got.Cols, want.Cols)
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("col %d: got %q want %q", i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: got %d want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("row %d width: got %d want %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j, g := range got.Rows[i] {
			w := want.Rows[i][j]
			if g.K != w.K || g.I != w.I || g.S != w.S ||
				math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("row %d col %d: got %+v want %+v", i, j, g, w)
			}
		}
	}
}

func TestBinaryQueryRoundTrip(t *testing.T) {
	_, c, _ := startPair(t, Options{})
	if c.Version() != ProtoVersion {
		t.Fatalf("version: %d", c.Version())
	}
	for _, n := range []int{0, 1, 255, 256, 257, 5000} {
		res, err := c.Query(fmt.Sprintf("select rows %d", n))
		if err != nil {
			t.Fatalf("rows %d: %v", n, err)
		}
		sameResult(t, res, q1Result(n))
	}
}

func TestBinaryStreamCursor(t *testing.T) {
	_, c, _ := startPair(t, Options{})
	rows, err := c.QueryStreamContext(context.Background(), "select rows 1000", cache.Control{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	want := q1Result(1000)
	if len(rows.Cols()) != len(want.Cols) {
		t.Fatalf("cols: %v", rows.Cols())
	}
	for i := 0; ; i++ {
		row, err := rows.Next()
		if err == io.EOF {
			if i != 1000 {
				t.Fatalf("rows: %d", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].I != want.Rows[i][0].I {
			t.Fatalf("row %d: %+v", i, row)
		}
	}
	// A drained cursor keeps reporting EOF.
	if _, err := rows.Next(); err != io.EOF {
		t.Fatalf("after EOF: %v", err)
	}
}

func TestBinaryQueryError(t *testing.T) {
	_, c, _ := startPair(t, Options{})
	if _, err := c.Query("boom"); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("err: %v", err)
	}
	// The connection survives an error reply.
	if _, err := c.Query("select rows 2"); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryExecAndPing(t *testing.T) {
	_, c, h := startPair(t, Options{})
	n, err := c.Exec("insert something")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len("insert something")) {
		t.Fatalf("affected: %d", n)
	}
	if _, err := c.Exec("boom"); err == nil {
		t.Fatal("exec boom should fail")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.execs) != 1 || h.execs[0] != "insert something" {
		t.Fatalf("execs: %v", h.execs)
	}
}

func TestBinaryEarlyCloseReleasesStream(t *testing.T) {
	_, c, _ := startPair(t, Options{ChunkRows: 16})
	rows, err := c.QueryStreamContext(context.Background(), "select rows 100000", cache.Control{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	rows.Close() // cancels the stream; the conn must stay usable
	res, err := c.Query("select rows 4")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, q1Result(4))
}

func TestBinaryContextCancelMidStream(t *testing.T) {
	_, c, _ := startPair(t, Options{ChunkRows: 8})
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := c.QueryStreamContext(ctx, "select rows 100000", cache.Control{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The cursor fails promptly (once buffered batches drain) and the
	// connection keeps serving other queries.
	for {
		if _, err := rows.Next(); err != nil {
			if err != context.Canceled {
				t.Fatalf("err: %v", err)
			}
			break
		}
	}
	if _, err := c.Query("select rows 1"); err != nil {
		t.Fatal(err)
	}
}

func TestCancelReachesHandler(t *testing.T) {
	h := &fakeHandler{block: make(chan struct{})}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.QueryContext(ctx, "select rows 1", cache.Control{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the query reach the blocking handler
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the query")
	}
	// The wire-level cancel must reach the handler: its ctx unblocked the
	// wait (not the test closing the channel). The server saw one cancel.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Cancels == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().Cancels; got != 1 {
		t.Fatalf("cancels: %d", got)
	}
	close(h.block)
}

func TestCacheControlBitsArrive(t *testing.T) {
	// The control bits must ride the fQuery frame into the handler's
	// context.
	h := &ctlHandler{}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.QueryContext(context.Background(), "q", cache.Control{NoCache: true, MaxStaleEpochs: 7}); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if want := (cache.Control{NoCache: true, MaxStaleEpochs: 7}); len(h.controls) != 1 || h.controls[0] != want {
		t.Fatalf("control bits: %+v", h.controls)
	}
}

func TestServerStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, c, _ := startPair(t, Options{Metrics: reg, ChunkRows: 256})
	if _, err := c.Query("select rows 600"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BinaryConns != 1 || st.NegotiatedVersion != ProtoVersion {
		t.Fatalf("conns/version: %+v", st)
	}
	if st.Streams != 1 || st.FramesIn < 1 || st.FramesOut < 4 /* header + ≥2 batches + end */ {
		t.Fatalf("frames: %+v", st)
	}
	if st.BytesOut <= st.BytesIn || st.BytesIn == 0 {
		t.Fatalf("bytes: %+v", st)
	}
	if got := reg.Counter(obs.MWireStreams).Value(); got != 1 {
		t.Fatalf("streams metric: %d", got)
	}
	if got := reg.Gauge(obs.MWireProtoVersion).Value(); got != ProtoVersion {
		t.Fatalf("version gauge: %d", got)
	}
}

// ctlHandler records the cache control of every query's context and
// the transport tag of the last one.
type ctlHandler struct {
	mu        sync.Mutex
	plain     int // Query calls (must stay 0: the handler has QueryContext)
	controls  []cache.Control
	transport string
}

func (h *ctlHandler) Query(string) (*engine.Result, error) {
	h.mu.Lock()
	h.plain++
	h.mu.Unlock()
	return &engine.Result{Cols: []string{"x"}}, nil
}

func (h *ctlHandler) QueryContext(ctx context.Context, _ string) (*engine.Result, error) {
	h.mu.Lock()
	h.controls = append(h.controls, cache.ControlFrom(ctx))
	h.transport = obs.TransportFrom(ctx)
	h.mu.Unlock()
	return &engine.Result{Cols: []string{"x"}, Rows: []sqltypes.Row{{sqltypes.NewInt(1)}}}, nil
}

func (h *ctlHandler) Exec(string) (int64, error) { return 0, nil }

func TestTransportTag(t *testing.T) {
	h := &ctlHandler{}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bc, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Query("q"); err != nil {
		t.Fatal(err)
	}
	bc.Close()
	h.mu.Lock()
	if h.transport != "binary" {
		t.Fatalf("transport: %q", h.transport)
	}
	h.mu.Unlock()
}
