package main

import (
	"database/sql"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	apuama "apuama"
	_ "apuama/internal/driver" // registers the "apuama" database/sql driver
	"apuama/internal/proto"
	"apuama/internal/tpch"
)

// rssLimitBytes is the memory guard: a workload whose resident set
// passes it is aborted, so the seed's memdb retention can never take
// the sandbox down.
const rssLimitBytes = 6 << 30

// slowLogSize holds every op of a traced window (the program's default
// ring of 128 would not).
const slowLogSize = 1 << 15

// env is one served cluster with the client pool the workload drives it
// through: what apuamad gives a user, in one process.
type env struct {
	c       *apuama.Cluster
	srv     *proto.Server
	db      *sql.DB
	handler *tracedHandler // nil unless the cluster was opened traced
}

func (e *env) close() {
	e.db.Close()
	e.srv.Close()
	e.c.Close()
}

// setup opens, loads, serves, connects and warms one cluster, and
// returns how long that took. Only Nodes (and Trace/SlowLogSize for the
// traced run) is set: every other Config field keeps its default.
func setup(w *workload, traced bool, seed int64) (*env, time.Duration, error) {
	t0 := time.Now()
	cfg := apuama.Config{Nodes: clusterNodes}
	if traced {
		cfg.Trace = true
		cfg.SlowLogSize = slowLogSize
	}
	c, err := apuama.Open(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	if err := c.LoadTPCH(scaleFactor, dataSeed); err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	e := &env{c: c}
	opts := proto.Options{Metrics: c.Metrics()}
	if traced {
		e.handler = &tracedHandler{c: c}
		e.srv, err = proto.Serve("127.0.0.1:0", e.handler, opts)
	} else {
		e.srv, err = proto.Serve("127.0.0.1:0", c, opts)
	}
	if err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	c.AttachWireServer(e.srv)
	e.db, err = sql.Open("apuama", e.srv.Addr())
	if err != nil {
		e.srv.Close()
		c.Close()
		return nil, 0, fmt.Errorf("connect: %w", err)
	}
	conns := w.clients
	if w.writer {
		conns++
	}
	e.db.SetMaxOpenConns(conns)
	e.db.SetMaxIdleConns(conns)
	if err := e.warmup(w, seed); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return e, time.Since(t0), nil
}

// warmup runs every statement class once, untimed by the window: lazy
// set-up in the program (pools, first dial, first plan) is paid here.
func (e *env) warmup(w *workload, seed int64) error {
	var cl client
	for _, o := range warmupOps(w, seed) {
		if _, err := cl.query(e.db, o.sql); err != nil {
			return err
		}
	}
	if w.writer {
		rs := tpch.NewRefreshStream(tpch.Generator{SF: scaleFactor, Seed: seed ^ 0x5eed}, 1)
		for _, st := range rs.Statements() {
			if _, err := e.db.Exec(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// client is one closed-loop reader's scan buffers, reused across ops so
// the harness adds as little allocation as database/sql allows.
type client struct {
	vals []any
	ptrs []any
}

// query runs one statement through database/sql and drains it, the way
// an application would, returning the row count.
func (cl *client) query(db *sql.DB, q string) (int, error) {
	rows, err := db.Query(q)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return 0, err
	}
	if len(cl.vals) != len(cols) {
		cl.vals = make([]any, len(cols))
		cl.ptrs = make([]any, len(cols))
		for i := range cl.vals {
			cl.ptrs[i] = &cl.vals[i]
		}
	}
	n := 0
	for rows.Next() {
		if err := rows.Scan(cl.ptrs...); err != nil {
			return n, err
		}
		n++
	}
	return n, rows.Err()
}

// sample is one completed read, timed from the window's start.
type sample struct {
	class      int
	rows       int
	start, end time.Duration
}

func (s sample) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// writeSample is one refresh statement: due is its scheduled send time,
// sent when the writer got to it, end when the cluster acknowledged.
type writeSample struct {
	due, sent, end time.Duration
}

// procSnap is the process-wide state read at both ends of a window.
type procSnap struct {
	cpu        time.Duration
	totalAlloc uint64
	mallocs    uint64
	heapAlloc  uint64
	numGC      uint32
	pauseNs    uint64
	gcCPUFrac  float64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		heapAlloc:  ms.HeapAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		gcCPUFrac:  ms.GCCPUFraction,
	}
}

// window is what one timed run of a workload produced, or several
// merged (see add).
type window struct {
	start      time.Time
	reads      []sample // ordered by start
	writes     []writeSample
	elapsed    time.Duration
	failed     int
	firstErr   error
	aborted    bool     // the memory guard ended the window early
	nextOp     int      // list index the next window continues from
	used       procSnap // end minus start of window, field by field (gcCPUFrac: at end)
	liveBefore uint64   // live heap after a forced GC, start of window
}

// add pools another window's samples and sums its elapsed time and
// resource use into w. Sample times stay relative to each sample's own
// window, which is all the latency and rate metrics need.
func (w *window) add(o *window) {
	w.reads = append(w.reads, o.reads...)
	w.writes = append(w.writes, o.writes...)
	w.elapsed += o.elapsed
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.aborted = w.aborted || o.aborted
	w.nextOp = o.nextOp
	w.used.cpu += o.used.cpu
	w.used.totalAlloc += o.used.totalAlloc
	w.used.mallocs += o.used.mallocs
	w.used.numGC += o.used.numGC
	w.used.pauseNs += o.used.pauseNs
	w.used.gcCPUFrac = o.used.gcCPUFrac
}

func (w *window) ops() int { return len(w.reads) }

func (w *window) rows() int {
	n := 0
	for _, s := range w.reads {
		n += s.rows
	}
	return n
}

// latencies returns the ascending read latencies in ms, of one class or
// (class < 0) of all.
func (w *window) latencies(class int) []float64 {
	out := make([]float64, 0, len(w.reads))
	for _, s := range w.reads {
		if class < 0 || s.class == class {
			out = append(out, s.ms())
		}
	}
	sort.Float64s(out)
	return out
}

// runWindow drives the workload for d: clients closed-loop readers
// sharing one op list from index first on, plus the open-loop refresh
// writer when the workload has one. Elapsed time is fixed and the work
// varies; the list order does not. A failed or wrong op counts in failed
// and is left out of the latency samples.
func runWindow(e *env, w *workload, ops []op, first int, writes []string, clients int, d time.Duration) *window {
	win := &window{}
	runtime.GC()
	before := readProc()
	win.liveBefore = before.heapAlloc

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		wg       sync.WaitGroup
		guardEnd = make(chan struct{})
	)
	next.Store(int64(first))
	fail := func(err error) {
		mu.Lock()
		win.failed++
		if win.firstErr == nil {
			win.firstErr = err
		}
		mu.Unlock()
	}
	win.start = time.Now()
	deadline := win.start.Add(d)

	var guard sync.WaitGroup
	guard.Add(1)
	go func() {
		defer guard.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-guardEnd:
				return
			case <-tick.C:
				if rss := currentRSS(); rss > rssLimitBytes {
					mu.Lock()
					win.aborted = true
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}
	}()

	perClient := make([][]sample, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var cl client
			for !stop.Load() && time.Now().Before(deadline) {
				o := &ops[int(next.Add(1)-1)%len(ops)]
				t0 := time.Since(win.start)
				n, err := cl.query(e.db, o.sql)
				t1 := time.Since(win.start)
				switch {
				case err != nil:
					fail(fmt.Errorf("%s: %w", o.sql, err))
				case o.wantRows >= 0 && n != o.wantRows:
					fail(fmt.Errorf("%s: %d rows, want %d", o.sql, n, o.wantRows))
				default:
					perClient[ci] = append(perClient[ci], sample{class: o.class, rows: n, start: t0, end: t1})
				}
			}
		}(ci)
	}

	var writerDone sync.WaitGroup
	readersDone := make(chan struct{})
	if w.writer {
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			win.writes = runWriter(e.db, writes, win.start, readersDone, fail)
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(win.start)
	win.nextOp = int(next.Load())
	close(readersDone)
	writerDone.Wait()
	close(guardEnd)
	guard.Wait()
	after := readProc()
	win.used = procSnap{
		cpu:        after.cpu - before.cpu,
		totalAlloc: after.totalAlloc - before.totalAlloc,
		mallocs:    after.mallocs - before.mallocs,
		numGC:      after.numGC - before.numGC,
		pauseNs:    after.pauseNs - before.pauseNs,
		gcCPUFrac:  after.gcCPUFrac,
	}

	for _, s := range perClient {
		win.reads = append(win.reads, s...)
	}
	sort.Slice(win.reads, func(i, j int) bool { return win.reads[i].start < win.reads[j].start })
	if win.aborted {
		// The ops the rest of the window would have run count as failed.
		left := d - win.elapsed
		if left > 0 && win.elapsed > 0 {
			win.failed += int(float64(len(win.reads)) * float64(left) / float64(win.elapsed))
		}
		win.failed++
		if win.firstErr == nil {
			win.firstErr = errors.New("memory guard: resident set passed 6 GB, window aborted")
		}
	}
	return win
}

// runWriter is the open-loop refresh writer: statement i goes out at its
// due time (or as soon after as the connection is free) until the
// readers finish, and is timed from when it was due. It then completes
// the block it is in, untimed, so that no refresh key stays behind.
func runWriter(db *sql.DB, stmts []string, start time.Time, readersDone <-chan struct{}, fail func(error)) []writeSample {
	due := dueTimes(refreshRate, len(stmts))
	perBlock := 4 * refreshOrders
	var out []writeSample
	i := 0
timed:
	for ; i < len(stmts); i++ {
		if wait := time.Until(start.Add(due[i])); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-readersDone:
				t.Stop()
				break timed
			case <-t.C:
			}
		} else {
			select {
			case <-readersDone:
				break timed
			default:
			}
		}
		sent := time.Since(start)
		_, err := db.Exec(stmts[i])
		if err != nil {
			fail(fmt.Errorf("%.60s...: %w", stmts[i], err))
			continue
		}
		out = append(out, writeSample{due: due[i], sent: sent, end: time.Since(start)})
	}
	for ; i%perBlock != 0 && i < len(stmts); i++ {
		if _, err := db.Exec(stmts[i]); err != nil {
			fail(fmt.Errorf("%.60s...: %w", stmts[i], err))
		}
	}
	return out
}

// currentRSS reads the resident set size from /proc (0 where there is
// no /proc: the guard is then inert).
func currentRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
