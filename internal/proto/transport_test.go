package proto

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/sqltypes"
)

// plainHandler is a tiny in-memory handler with Query and Exec only —
// no QueryContext — the shape bench's stubHandler has.
type plainHandler struct {
	mu   sync.Mutex
	rows map[int64]string
}

func newPlain() *plainHandler { return &plainHandler{rows: map[int64]string{1: "one", 2: "two"}} }

func (f *plainHandler) Query(q string) (*engine.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if strings.Contains(q, "boom") {
		return nil, fmt.Errorf("synthetic failure")
	}
	res := &engine.Result{Cols: []string{"k", "v"}}
	for k, v := range f.rows {
		res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewString(v)})
	}
	return res, nil
}

func (f *plainHandler) Exec(q string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if strings.Contains(q, "boom") {
		return 0, fmt.Errorf("synthetic failure")
	}
	f.rows[int64(len(f.rows)+1)] = q
	return 1, nil
}

func startPlain(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", newPlain(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialPlain(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(startPlain(t).Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestQueryRoundTrip(t *testing.T) {
	c := dialPlain(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("select anything")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Cols) != 2 {
		t.Fatalf("%+v", res)
	}
	n, err := c.Exec("insert something")
	if err != nil || n != 1 {
		t.Fatalf("exec: %d %v", n, err)
	}
}

func TestErrorsPropagate(t *testing.T) {
	c := dialPlain(t)
	if _, err := c.Query("boom"); err == nil || !strings.Contains(err.Error(), "synthetic") {
		t.Fatalf("query error: %v", err)
	}
	// Connection stays usable after an error response.
	if _, err := c.Query("ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("boom"); err == nil {
		t.Fatal("exec error lost")
	}
}

// hammer runs worker on 8 goroutines at once.
func hammer(t *testing.T, worker func() error) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func query20(c *Client) error {
	for i := 0; i < 20; i++ {
		if _, err := c.Query("q"); err != nil {
			return err
		}
	}
	return nil
}

func TestConcurrentClients(t *testing.T) {
	s := startPlain(t)
	hammer(t, func() error {
		c, err := Dial(s.Addr())
		if err != nil {
			return err
		}
		defer c.Close()
		return query20(c)
	})
}

func TestSharedClientConcurrency(t *testing.T) {
	c := dialPlain(t)
	hammer(t, func() error { return query20(c) })
}

func TestClosedClient(t *testing.T) {
	c := dialPlain(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
	if _, err := c.Query("q"); err == nil {
		t.Fatal("query on closed client should fail")
	}
	if _, err := c.Exec("q"); err == nil {
		t.Fatal("exec on closed client should fail")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping on closed client should fail")
	}
}

func TestServerClose(t *testing.T) {
	s := startPlain(t)
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after close should fail")
	}
}

func TestServerDoubleClose(t *testing.T) {
	s := startPlain(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestControlBitsReachContextHandler(t *testing.T) {
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

	want := []cache.Control{
		{},
		{NoCache: true},
		{MaxStaleEpochs: 8},
		{NoCache: true, MaxStaleEpochs: 3},
	}
	ctx := context.Background()
	if _, err := c.Query("plain"); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range want[1:3] {
		if _, err := c.QueryContext(ctx, "q", ctl); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := c.QueryStreamContext(ctx, "stream", want[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.plain != 0 {
		t.Fatalf("server used Handler.Query %d times despite ContextHandler", h.plain)
	}
	if len(h.controls) != len(want) {
		t.Fatalf("saw %d queries, want %d", len(h.controls), len(want))
	}
	for i, got := range h.controls {
		if got != want[i] {
			t.Errorf("query %d: control %+v, want %+v", i, got, want[i])
		}
	}
}

func TestPlainHandlerStillServed(t *testing.T) {
	// A handler without QueryContext must keep working, control bits or
	// not — the bits are simply dropped.
	c := dialPlain(t)
	res, err := c.QueryContext(context.Background(), "q", cache.Control{NoCache: true, MaxStaleEpochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
}

func openStream(t *testing.T, c *Client, q string) *Rows {
	t.Helper()
	rd, err := c.QueryStreamContext(context.Background(), q, cache.Control{})
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func TestQueryStreamMultiChunk(t *testing.T) {
	const n = DefaultBatchRows*3 + 17
	_, c, _ := startPair(t, Options{})
	q := fmt.Sprintf("select rows %d", n)
	rd := openStream(t, c, q)
	if cols := rd.Cols(); len(cols) != 7 || cols[0] != "l_quantity" {
		t.Fatalf("cols: %v", cols)
	}
	for i := 0; i < n; i++ {
		row, err := rd.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row[0].I != int64(i*7) {
			t.Fatalf("row %d: %v", i, row)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last row: %v", err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	// The connection serves ordinary requests afterwards.
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
}

func TestQueryStreamEmptyResult(t *testing.T) {
	_, c, _ := startPair(t, Options{})
	rd := openStream(t, c, "select rows 0")
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty result: %v", err)
	}
	rd.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryStreamError(t *testing.T) {
	_, c, _ := startPair(t, Options{})
	_, err := c.QueryStreamContext(context.Background(), "boom", cache.Control{})
	if err == nil || !strings.Contains(err.Error(), "synthetic") {
		t.Fatalf("error lost: %v", err)
	}
	if _, err := c.Query("select rows 10"); err != nil {
		t.Fatal(err)
	}
}

// TestQueryStreamEarlyClose abandons a cursor mid-result; the cursor
// reports exhaustion from then on and the next request on the same
// connection gets its own, whole result.
func TestQueryStreamEarlyClose(t *testing.T) {
	const n = DefaultBatchRows * 4
	_, c, _ := startPair(t, Options{})
	q := fmt.Sprintf("select rows %d", n)
	rd := openStream(t, c, q)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("next after close: %v", err)
	}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("follow-up query: %d rows", len(res.Rows))
	}
}

// legacyRequest is a ping in the stream encoding of the transport this
// package replaced (captured from the last commit that had it): what an
// un-upgraded client would open with.
const legacyRequest = "O\x7f\x03\x01\x01\aRequest\x01\xff\x80\x00\x01\x05\x01\x04Kind\x01\f\x00\x01\x03SQL\x01\f" +
	"\x00\x01\x06Stream\x01\x02\x00\x01\aNoCache\x01\x02\x00\x01\x0eMaxStaleEpochs\x01\x04\x00\x00\x00\t\xff\x80\x01\x04ping\x00"

// TestHandshakeClosesSilentAndForeignPeers: a peer that does not open
// with the magic is closed at once, one that stalls — before or inside
// the hello — is closed by the handshake deadline, none of them is
// answered, and the listener keeps serving a well-formed client.
func TestHandshakeClosesSilentAndForeignPeers(t *testing.T) {
	s := startPlain(t)
	peers := []struct {
		name, opening string
		stalls        bool
	}{
		{name: "silent", stalls: true},
		{name: "magic then silence", opening: string(magic[:]), stalls: true},
		{name: "legacy request", opening: legacyRequest},
		{name: "http", opening: "GET / HTTP/1.1\r\nHost: apuama\r\n\r\n"},
		{name: "version 0", opening: string(magic[:]) + "\x00\x00"},
	}
	var wg sync.WaitGroup
	defer wg.Wait() // also on the Fatal paths below: the peers report through t
	for _, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Errorf("%s: %v", p.name, err)
				return
			}
			defer conn.Close()
			start := time.Now()
			if _, err := io.WriteString(conn, p.opening); err != nil {
				t.Errorf("%s: write: %v", p.name, err)
				return
			}
			conn.SetReadDeadline(start.Add(handshakeTimeout + 5*time.Second))
			// Returns once the server closes its end: EOF, or a reset
			// when the server left part of the opening unread.
			got, err := io.ReadAll(conn)
			if os.IsTimeout(err) || len(got) != 0 {
				t.Errorf("%s: read %q, %v; want a bare close", p.name, got, err)
			}
			if took := time.Since(start); p.stalls != (took >= handshakeTimeout-100*time.Millisecond) {
				t.Errorf("%s: closed after %v (handshake timeout %v)", p.name, took, handshakeTimeout)
			}
		}()
	}
	// While the stalled peers are still parked in their handshake.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res, err := c.Query("q"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("query after the foreign peers: %v, %v", res, err)
	}
	if st := s.Stats(); st.BinaryConns != 1 {
		t.Fatalf("handshakes completed: %d, want 1", st.BinaryConns)
	}
}
