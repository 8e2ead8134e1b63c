package proto

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/sqltypes"
)

// Handler is what the server serves: the public Cluster satisfies it.
type Handler interface {
	Query(sqlText string) (*engine.Result, error)
	Exec(sqlText string) (int64, error)
}

// ContextHandler is an optional upgrade of Handler: when the handler
// also implements it, queries are delivered through QueryContext with
// the stream's context (a cancel frame cancels it) carrying the
// transport tag and any per-request cache.Control. The public Cluster
// satisfies it.
type ContextHandler interface {
	QueryContext(ctx context.Context, sqlText string) (*engine.Result, error)
}

// Options configures a Server.
type Options struct {
	// Metrics mirrors the server's wire counters into a registry
	// (apuama_wire_*; nil disables mirroring).
	Metrics *obs.Registry
	// ChunkRows is the rows per batch frame (default DefaultBatchRows).
	ChunkRows int
}

// DefaultBatchRows is how many rows the server packs per batch frame.
// Much larger than the engine's 256-row batch: the columnar codec's
// cost is per batch (one dictionary build, one frame, one credit)
// rather than per value, so bigger batches amortize it — 4096 Q1-shaped
// rows is still only ~100 KiB on the wire.
const DefaultBatchRows = 4096

// Stats is a point-in-time snapshot of a server's wire activity.
type Stats struct {
	FramesIn, FramesOut int64 // frames received / sent
	BytesIn, BytesOut   int64 // frame bytes received / sent (headers included)
	Streams             int64 // query/exec/ping streams opened
	Cancels             int64 // wire-level cancel frames honoured
	BinaryConns         int64 // connections that completed the handshake
	// NegotiatedVersion is the frame-format version of the most recent
	// handshake (0 until one completes).
	NegotiatedVersion int64
}

// serverStats is the server's atomic counter block, mirrored into the
// metrics registry the same way core's engineStats mirrors (nil-safe
// handles; a single Add updates both views).
type serverStats struct {
	framesIn, framesOut atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	streams             atomic.Int64
	cancels             atomic.Int64
	binaryConns         atomic.Int64
	version             atomic.Int64

	mFrames, mBytes, mStreams, mCancels *obs.Counter
	mVersion                            *obs.Gauge
	mShip                               *obs.Histogram
}

func (st *serverStats) wire(reg *obs.Registry) {
	st.mFrames = reg.Counter(obs.MWireFrames)
	st.mBytes = reg.Counter(obs.MWireBytes)
	st.mStreams = reg.Counter(obs.MWireStreams)
	st.mCancels = reg.Counter(obs.MWireCancels)
	st.mVersion = reg.Gauge(obs.MWireProtoVersion)
	st.mShip = reg.Histogram(obs.MWireShip)
}

func (st *serverStats) frameIn(payload int) {
	st.framesIn.Add(1)
	st.bytesIn.Add(int64(frameHeaderSize + payload))
	st.mFrames.Inc()
	st.mBytes.Add(int64(frameHeaderSize + payload))
}

func (st *serverStats) frameOut(payload int) {
	st.framesOut.Add(1)
	st.bytesOut.Add(int64(frameHeaderSize + payload))
	st.mFrames.Inc()
	st.mBytes.Add(int64(frameHeaderSize + payload))
}

// Server accepts connections and serves the multiplexed protocol on
// each, concurrently across connections and across the streams of one.
type Server struct {
	ln   net.Listener
	h    Handler
	opts Options
	st   serverStats

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts listening on addr (use "127.0.0.1:0" for an ephemeral
// test port) and serving in background goroutines.
func Serve(addr string, h Handler, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opts.ChunkRows <= 0 {
		opts.ChunkRows = DefaultBatchRows
	}
	s := &Server{ln: ln, h: h, opts: opts, conns: map[net.Conn]struct{}{}}
	s.st.wire(opts.Metrics)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the server's wire counters.
func (s *Server) Stats() Stats {
	return Stats{
		FramesIn:          s.st.framesIn.Load(),
		FramesOut:         s.st.framesOut.Load(),
		BytesIn:           s.st.bytesIn.Load(),
		BytesOut:          s.st.bytesOut.Load(),
		Streams:           s.st.streams.Load(),
		Cancels:           s.st.cancels.Load(),
		BinaryConns:       s.st.binaryConns.Load(),
		NegotiatedVersion: s.st.version.Load(),
	}
}

// Close stops accepting, closes every live connection (in-flight
// queries are cancelled) and waits for the serving goroutines. Safe to
// call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// srvStream is one in-flight query on a connection.
type srvStream struct {
	ctx     context.Context
	cancel  context.CancelFunc
	credits atomic.Int64
	kick    chan struct{} // cap 1; poked when credits arrive
}

// tryCredit consumes one batch credit without blocking.
func (st *srvStream) tryCredit() bool {
	if st.credits.Load() > 0 {
		st.credits.Add(-1)
		return true
	}
	return false
}

// waitCredit consumes one batch credit, blocking until the client
// grants more or the stream is cancelled. The caller must flush any
// buffered frames first — the client cannot grant credits for batches
// it has not seen.
func (st *srvStream) waitCredit() bool {
	for {
		if st.tryCredit() {
			return true
		}
		select {
		case <-st.kick:
		case <-st.ctx.Done():
			return false
		}
	}
}

// binConn is one negotiated connection: a read loop demultiplexes
// client frames while per-stream goroutines serve queries and interleave
// their response frames through the shared write mutex.
type binConn struct {
	srv   *Server
	nc    net.Conn
	bw    *bufio.Writer
	wmu   sync.Mutex
	wpend atomic.Int64 // flushing writers in flight (flush coalescing)

	ctx    context.Context
	cancel context.CancelFunc

	smu     sync.Mutex
	streams map[uint32]*srvStream

	// jobs hands a query to the idle query worker of the connection, if
	// idle is set (see queryWorker); qwg counts the workers and the exec
	// goroutines.
	jobs chan queryJob
	idle atomic.Bool
	qwg  sync.WaitGroup
}

// queryJob is one query frame for a query worker.
type queryJob struct {
	id uint32
	st *srvStream
	q  queryReq
}

// serveConn shakes hands — the deadline is armed before the first read,
// so a peer that connects and stalls is cut off instead of pinning the
// goroutine; one that opens with anything but the magic is closed — and
// then serves frames until the peer goes away.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var hello [helloSize]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil || [4]byte(hello[:4]) != magic {
		return
	}
	ver := negotiate(binary.LittleEndian.Uint16(hello[4:]))
	if ver == 0 {
		return
	}
	if _, err := conn.Write(helloReply(ver)); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	s.st.binaryConns.Add(1)
	s.st.version.Store(int64(ver))
	s.st.mVersion.Set(int64(ver))

	ctx, cancel := context.WithCancel(context.Background())
	c := &binConn{
		srv: s, nc: conn,
		bw:  bufio.NewWriterSize(conn, 64<<10),
		ctx: ctx, cancel: cancel,
		streams: map[uint32]*srvStream{},
		jobs:    make(chan queryJob),
	}
	defer cancel()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			break
		}
		typ, id, payload := f.typ, f.stream, f.payload
		s.st.frameIn(len(payload))
		switch typ {
		case fQuery:
			q, err := decodeQuery(payload)
			if err != nil {
				c.writeEnd(id, 0, err)
				continue
			}
			st := c.addStream(id)
			if st == nil {
				c.writeEnd(id, 0, errBadFrame)
				continue
			}
			st.credits.Store(int64(q.credits))
			s.st.streams.Add(1)
			s.st.mStreams.Inc()
			c.startQuery(queryJob{id: id, st: st, q: q})
		case fExec:
			sqlText, err := decodeExec(payload)
			if err != nil {
				c.writeEnd(id, 0, err)
				continue
			}
			s.st.streams.Add(1)
			s.st.mStreams.Inc()
			c.qwg.Add(1)
			go c.runExec(id, sqlText)
		case fPing:
			c.writeEnd(id, 0, nil)
		case fCancel:
			c.smu.Lock()
			st := c.streams[id]
			c.smu.Unlock()
			if st != nil {
				st.cancel()
				s.st.cancels.Add(1)
				s.st.mCancels.Inc()
			}
		case fCredit:
			n, err := decodeCredit(payload)
			if err != nil {
				continue
			}
			c.smu.Lock()
			st := c.streams[id]
			c.smu.Unlock()
			if st != nil {
				st.credits.Add(int64(n))
				select {
				case st.kick <- struct{}{}:
				default:
				}
			}
		default:
			// Unknown client frame: ignore for forward compatibility.
		}
	}
	// Connection gone (or server closing): cancel every in-flight
	// stream and wait for its goroutine before closing the socket.
	cancel()
	c.qwg.Wait()
}

func (c *binConn) addStream(id uint32) *srvStream {
	ctx, cancel := context.WithCancel(c.ctx)
	st := &srvStream{ctx: ctx, cancel: cancel, kick: make(chan struct{}, 1)}
	c.smu.Lock()
	defer c.smu.Unlock()
	if _, dup := c.streams[id]; dup {
		cancel()
		return nil
	}
	c.streams[id] = st
	return st
}

func (c *binConn) removeStream(id uint32, st *srvStream) {
	c.smu.Lock()
	delete(c.streams, id)
	c.smu.Unlock()
	st.cancel()
}

// writeFrame writes one frame and flushes — unless another writer is
// already waiting on the connection, in which case the flush is left to
// the last writer of the burst. Under concurrent streams this coalesces
// many small frames into one syscall.
func (c *binConn) writeFrame(typ byte, id uint32, payload []byte) error {
	c.wpend.Add(1)
	c.wmu.Lock()
	err := writeFrame(c.bw, typ, id, payload)
	if c.wpend.Add(-1) == 0 && err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err == nil {
		c.srv.st.frameOut(len(payload))
	}
	return err
}

// writeBuffered copies one frame into the connection buffer without
// flushing. Only runQuery uses it, and only when it will either write
// again immediately or call flush before blocking — buffered frames
// must never wait on the client, who cannot see them yet.
func (c *binConn) writeBuffered(typ byte, id uint32, payload []byte) error {
	c.wmu.Lock()
	err := writeFrame(c.bw, typ, id, payload)
	c.wmu.Unlock()
	if err == nil {
		c.srv.st.frameOut(len(payload))
	}
	return err
}

// flush pushes buffered frames to the socket; skipped when a flushing
// writer is in flight, since that writer will carry these bytes out.
func (c *binConn) flush() error {
	if c.wpend.Load() > 0 {
		return nil
	}
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	return err
}

func (c *binConn) writeEnd(id uint32, affected int64, err error) error {
	return c.writeFrame(fEnd, id, encodeEnd(affected, err))
}

// handleQuery routes a query to the handler with the stream's context —
// wire-level cancel frames cancel it — plus the cache-control bits and
// the transport tag the tracing layer annotates onto the query span.
func (c *binConn) handleQuery(ctx context.Context, q queryReq) (*engine.Result, error) {
	ch, ok := c.srv.h.(ContextHandler)
	if !ok {
		return c.srv.h.Query(q.sql)
	}
	ctx = obs.WithTransport(ctx, "binary")
	if q.ctl.NoCache || q.ctl.MaxStaleEpochs > 0 {
		ctx = cache.WithControl(ctx, q.ctl)
	}
	return ch.QueryContext(ctx, q.sql)
}

// encScratch bundles one stream's block-encode buffers: the frame
// payload being built and the dictionary-building scratch. Pooled
// across queries so a short query costs no encode allocations at all.
type encScratch struct {
	hdr  []byte
	buf  []byte
	cols sqltypes.ColScratch
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// startQuery hands job to an idle query worker, or starts one when none
// is idle.
func (c *binConn) startQuery(job queryJob) {
	select {
	case c.jobs <- job:
	default:
		c.qwg.Add(1)
		go c.queryWorker(job)
	}
}

// queryWorker runs job, then each query startQuery hands it while it is
// the connection's idle worker, until the connection goes. A worker keeps
// the stack its queries grew, so a stream of short queries does not grow a
// fresh goroutine's stack for each one. At most one worker waits idle: one
// that finishes while another waits returns, so a burst of concurrent
// streams leaves no goroutines behind it.
func (c *binConn) queryWorker(job queryJob) {
	defer c.qwg.Done()
	for {
		c.runQuery(job.id, job.st, job.q)
		job = queryJob{}
		if !c.idle.CompareAndSwap(false, true) {
			return
		}
		select {
		case job = <-c.jobs:
			c.idle.Store(false)
		case <-c.ctx.Done():
			return
		}
	}
}

// runQuery executes one query stream: header frame, credit-gated batch
// frames, trailer. The block scratch buffer is reused across batches —
// writeFrame copies into the connection's buffered writer before
// returning, so the reuse never races the socket. Once every row is
// encoded — or the stream is cancelled or its connection fails — the
// result's pooled memory goes back (Result.Release).
func (c *binConn) runQuery(id uint32, st *srvStream, q queryReq) {
	defer c.removeStream(id, st)
	res, err := c.handleQuery(st.ctx, q)
	if err != nil {
		c.writeEnd(id, 0, err)
		return
	}
	defer res.Release()
	t0 := time.Now()
	// Header, batches and trailer are buffered, not flushed per frame: a
	// small pre-credited result reaches the socket in ONE write. The only
	// mandatory flush points are before blocking on credits (the client
	// cannot grant credits for frames it has not seen) and after the
	// trailer.
	es := encPool.Get().(*encScratch)
	defer encPool.Put(es)
	es.hdr = appendHeader(es.hdr[:0], res.Cols)
	if err := c.writeBuffered(fHeader, id, es.hdr); err != nil {
		return
	}
	rows := res.Rows
	chunk := c.srv.opts.ChunkRows
	var streamErr error
	for len(rows) > 0 {
		if !st.tryCredit() {
			if err := c.flush(); err != nil {
				return
			}
			if !st.waitCredit() {
				streamErr = errCancelled
				break
			}
		}
		part := rows
		if len(part) > chunk {
			part = part[:chunk]
		}
		rows = rows[len(part):]
		es.buf = encodeBlock(es.buf[:0], len(res.Cols), part, &es.cols)
		if err := c.writeBuffered(fBatch, id, es.buf); err != nil {
			return
		}
	}
	c.srv.st.mShip.Observe(time.Since(t0))
	res.Release() // every row is encoded: none is read again
	if err := c.writeBuffered(fEnd, id, encodeEnd(0, streamErr)); err != nil {
		return
	}
	c.flush()
}

func (c *binConn) runExec(id uint32, sqlText string) {
	defer c.qwg.Done()
	n, err := c.srv.h.Exec(sqlText)
	c.writeEnd(id, n, err)
}
