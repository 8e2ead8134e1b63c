package proto

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/sqltypes"
)

// DefaultWindow is the per-query flow-control window: how many batch
// frames the server may have in flight before the client's consumption
// grants more credits. It bounds per-stream client buffering the way
// the engine's GatherBudget bounds the in-process gather channel.
const DefaultWindow = 32

// Client is one connection to a server. Any number of queries may be in
// flight concurrently, multiplexed over the single TCP connection; all
// methods are safe for concurrent use.
type Client struct {
	nc      net.Conn
	bw      *bufio.Writer
	wmu     sync.Mutex
	wpend   atomic.Int64 // flushing writers in flight (flush coalescing)
	version uint16

	mu      sync.Mutex
	streams map[uint32]*cliStream
	nextID  uint32
	connErr error
	closed  bool

	hdr atomic.Pointer[hdrCache] // last decoded result schema
}

// cliFrame is one demultiplexed server frame.
type cliFrame struct {
	typ     byte
	payload []byte
}

// cliStream receives one query's frames. ch is sized so the reader can
// always deliver without blocking: the server never exceeds the granted
// credit window of batch frames, plus one header and one trailer.
type cliStream struct {
	id     uint32
	ch     chan cliFrame
	cancel chan struct{} // closed by Rows.Close to unblock a waiter
	once   sync.Once
}

// streamPool recycles cliStreams — mainly their credit-window-sized
// frame channels — across queries. Only streams that ended cleanly
// (trailer received, hence already deleted from the demux map with an
// empty channel) are returned; abandoned streams go to the GC.
var streamPool = sync.Pool{New: func() any {
	return &cliStream{ch: make(chan cliFrame, DefaultWindow+2)}
}}

// releaseStream returns a cleanly-ended stream to the pool.
func releaseStream(st *cliStream) {
	select { // defensive: a pooled stream must present an empty channel
	case <-st.ch:
		return // unexpected leftover frame — do not recycle
	default:
	}
	streamPool.Put(st)
}

// hdrCache memoizes one decoded header frame. Queries multiplexed on a
// connection almost always share a schema, so the per-query header
// decode collapses to a byte comparison.
type hdrCache struct {
	key  string
	cols []string
}

// Dial connects to a server and negotiates the frame-format version.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(clientHello()); err != nil {
		conn.Close()
		return nil, err
	}
	var reply [helloReplySize]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if [4]byte(reply[0:4]) != magic {
		conn.Close()
		return nil, errBadHello
	}
	ver := binary.LittleEndian.Uint16(reply[4:])
	if ver == 0 || ver > ProtoVersion {
		conn.Close()
		return nil, errBadHello
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		nc:      conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		version: ver,
		streams: map[uint32]*cliStream{},
	}
	go c.readLoop()
	return c, nil
}

// Version reports the negotiated frame-format version.
func (c *Client) Version() int { return int(c.version) }

// readLoop demultiplexes server frames to their streams. Stream
// channels are sized for the full credit window, so delivery under the
// lock never blocks; frames for unknown (finished or cancelled)
// streams are dropped.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		typ, id, payload, err := readFrame(br)
		if err != nil {
			c.mu.Lock()
			if c.connErr == nil {
				c.connErr = errClosed
				if !c.closed {
					c.connErr = fmt.Errorf("proto: connection lost: %w", err)
				}
			}
			streams := c.streams
			c.streams = map[uint32]*cliStream{}
			c.mu.Unlock()
			for _, st := range streams {
				close(st.ch)
			}
			return
		}
		c.mu.Lock()
		st := c.streams[id]
		if st != nil {
			st.ch <- cliFrame{typ: typ, payload: payload}
			if typ == fEnd {
				delete(c.streams, id)
			}
		}
		c.mu.Unlock()
	}
}

// openStream registers a new stream and returns it.
func (c *Client) openStream() (*cliStream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.connErr != nil {
		err := c.connErr
		if err == nil {
			err = errClosed
		}
		return nil, err
	}
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	st := streamPool.Get().(*cliStream)
	st.id = c.nextID
	st.cancel = make(chan struct{})
	st.once = sync.Once{}
	c.streams[st.id] = st
	return st, nil
}

// dropStream unregisters a stream (no more frames will be delivered)
// and tells the server to abort it.
func (c *Client) dropStream(st *cliStream) {
	c.mu.Lock()
	_, live := c.streams[st.id]
	delete(c.streams, st.id)
	c.mu.Unlock()
	if live {
		c.writeFrame(fCancel, st.id, nil)
	}
}

// writeFrame writes one frame and flushes — unless another writer is
// already waiting on the connection, in which case the last writer of
// the burst flushes for everyone. Concurrent queries on one multiplexed
// connection thus coalesce their request frames into fewer syscalls.
func (c *Client) writeFrame(typ byte, id uint32, payload []byte) error {
	c.wpend.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := writeFrame(c.bw, typ, id, payload)
	if c.wpend.Add(-1) == 0 && err == nil {
		err = c.bw.Flush()
	}
	return err
}

// recv waits for the stream's next frame, honouring the caller's
// context and a concurrent Rows.Close.
func (c *Client) recv(ctx context.Context, st *cliStream) (cliFrame, error) {
	select {
	case f, ok := <-st.ch:
		if !ok {
			return cliFrame{}, c.connError()
		}
		return f, nil
	default:
	}
	select {
	case f, ok := <-st.ch:
		if !ok {
			return cliFrame{}, c.connError()
		}
		return f, nil
	case <-ctx.Done():
		c.dropStream(st)
		return cliFrame{}, ctx.Err()
	case <-st.cancel:
		c.dropStream(st)
		return cliFrame{}, errCancelled
	}
}

// cachedHeader decodes a header frame, memoizing the last distinct
// schema: when the payload bytes repeat, the cached cols slice is
// shared (callers only read it).
func (c *Client) cachedHeader(p []byte) ([]string, error) {
	if h := c.hdr.Load(); h != nil && h.key == string(p) {
		return h.cols, nil
	}
	cols, err := decodeHeader(p)
	if err != nil {
		return nil, err
	}
	c.hdr.Store(&hdrCache{key: string(p), cols: cols})
	return cols, nil
}

func (c *Client) connError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.connErr != nil {
		return c.connErr
	}
	return errClosed
}

// Query runs a read-only statement and materializes the whole result.
func (c *Client) Query(sqlText string) (*engine.Result, error) {
	return c.QueryContext(context.Background(), sqlText, cache.Control{})
}

// QueryContext is Query with a context (a done context cancels the
// query on the server through a wire-level cancel frame, leaving the
// shared connection usable) and per-request cache directives.
func (c *Client) QueryContext(ctx context.Context, sqlText string, ctl cache.Control) (*engine.Result, error) {
	rows, err := c.QueryStreamContext(ctx, sqlText, ctl)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	rows.pin = true // the materialized result retains every row
	res := &engine.Result{Cols: rows.Cols()}
	for {
		row, err := rows.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
}

// QueryStreamContext runs a read-only statement as a cursor: batches
// are decoded from the shared connection as the caller consumes them,
// with credit-based flow control bounding how far the server can run
// ahead. A streaming read does not reserve the connection — any number
// of cursors from any goroutines proceed concurrently.
func (c *Client) QueryStreamContext(ctx context.Context, sqlText string, ctl cache.Control) (*Rows, error) {
	st, err := c.openStream()
	if err != nil {
		return nil, err
	}
	if err := c.writeFrame(fQuery, st.id, encodeQuery(DefaultWindow, ctl, sqlText)); err != nil {
		c.dropStream(st)
		return nil, err
	}
	f, err := c.recv(ctx, st)
	if err != nil {
		return nil, err
	}
	switch f.typ {
	case fHeader:
		cols, err := c.cachedHeader(f.payload)
		if err != nil {
			c.dropStream(st)
			return nil, err
		}
		return &Rows{c: c, st: st, ctx: ctx, cols: cols}, nil
	case fEnd:
		releaseStream(st) // readLoop already dropped it on the trailer
		_, qerr, ferr := decodeEnd(f.payload)
		if ferr != nil {
			return nil, ferr
		}
		if qerr == nil {
			qerr = errBadFrame // a query stream must open with a header
		}
		return nil, qerr
	default:
		c.dropStream(st)
		return nil, errBadFrame
	}
}

// Exec runs a write/DDL/SET statement.
func (c *Client) Exec(sqlText string) (int64, error) {
	return c.ExecContext(context.Background(), sqlText)
}

// ExecContext is Exec with a context.
func (c *Client) ExecContext(ctx context.Context, sqlText string) (int64, error) {
	st, err := c.openStream()
	if err != nil {
		return 0, err
	}
	if err := c.writeFrame(fExec, st.id, encodeExec(sqlText)); err != nil {
		c.dropStream(st)
		return 0, err
	}
	return c.awaitEnd(ctx, st)
}

// Ping checks liveness.
func (c *Client) Ping() error {
	st, err := c.openStream()
	if err != nil {
		return err
	}
	if err := c.writeFrame(fPing, st.id, nil); err != nil {
		c.dropStream(st)
		return err
	}
	_, err = c.awaitEnd(context.Background(), st)
	return err
}

// awaitEnd reads frames until the stream's trailer.
func (c *Client) awaitEnd(ctx context.Context, st *cliStream) (int64, error) {
	for {
		f, err := c.recv(ctx, st)
		if err != nil {
			return 0, err
		}
		if f.typ != fEnd {
			continue // tolerate (and discard) unexpected frames
		}
		releaseStream(st)
		affected, qerr, ferr := decodeEnd(f.payload)
		if ferr != nil {
			return 0, ferr
		}
		return affected, qerr
	}
}

// Close closes the connection; in-flight streams fail with a closed
// error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.nc.Close()
}

// Rows is a streaming cursor over one query's result.
//
// A Row returned by Next is valid until the next Next or Close call:
// the cursor recycles its decode slab across batches. Copy Values out
// of the row to retain them — copied Values stay valid indefinitely,
// since string contents alias the (immutable, never recycled) frame
// payload rather than the slab.
type Rows struct {
	c        *Client
	st       *cliStream
	ctx      context.Context
	cols     []string
	buf      []sqltypes.Row
	bufs     *rowBufs
	pin      bool // materializing reader: rows must outlive the cursor
	pos      int
	consumed uint32 // batches consumed since the last credit grant
	done     bool
	err      error
}

// Cols returns the result schema.
func (r *Rows) Cols() []string { return r.cols }

// Next returns the next row, or io.EOF after the last one. Any
// mid-stream server error surfaces here once and is sticky.
func (r *Rows) Next() (sqltypes.Row, error) {
	for {
		if r.err != nil {
			return nil, r.err
		}
		if r.pos < len(r.buf) {
			row := r.buf[r.pos]
			r.pos++
			return row, nil
		}
		if r.done {
			return nil, io.EOF
		}
		f, err := r.c.recv(r.ctx, r.st)
		if err != nil {
			r.done, r.err = true, err
			return nil, err
		}
		switch f.typ {
		case fBatch:
			if !r.pin && r.bufs == nil {
				r.bufs = bufsPool.Get().(*rowBufs)
			}
			// A pinned (materializing) reader passes nil bufs: fresh
			// slab per batch, rows stay stable forever.
			rows, err := decodeBlockInto(f.payload, r.bufs)
			if err != nil {
				r.fail(err)
				return nil, err
			}
			r.buf, r.pos = rows, 0
			// Top up the server's credit window once half is consumed,
			// keeping the pipe full without unbounded client buffering.
			r.consumed++
			if r.consumed >= DefaultWindow/2 {
				r.c.writeFrame(fCredit, r.st.id, encodeCredit(r.consumed))
				r.consumed = 0
			}
		case fEnd:
			r.done = true
			releaseStream(r.st) // ended cleanly: readLoop already dropped it
			r.releaseBufs()
			_, qerr, ferr := decodeEnd(f.payload)
			if ferr != nil {
				r.err = ferr
				return nil, ferr
			}
			if qerr != nil {
				r.err = qerr
				return nil, qerr
			}
		default:
			r.fail(errBadFrame)
			return nil, r.err
		}
	}
}

// releaseBufs recycles the cursor's decode buffers. Only called once
// the cursor's rows are invalid by contract — after the trailer or on
// Close — and never for pinned readers (whose bufs stay nil).
func (r *Rows) releaseBufs() {
	if r.bufs != nil {
		bufsPool.Put(r.bufs)
		r.bufs = nil
	}
	r.buf = nil
}

// fail poisons the reader and abandons the stream (the connection
// itself stays in sync — framing is length-prefixed — so other streams
// continue).
func (r *Rows) fail(err error) {
	r.done, r.err = true, err
	r.c.dropStream(r.st)
}

// Close releases the stream. If the server is still sending, a cancel
// frame aborts it without disturbing the other queries multiplexed on
// the connection; no draining is needed.
func (r *Rows) Close() error {
	if !r.done {
		r.done = true
		r.st.once.Do(func() { close(r.st.cancel) })
		r.c.dropStream(r.st)
	}
	if r.err == nil {
		r.err = io.EOF
	}
	r.buf, r.pos = nil, 0
	return nil
}
