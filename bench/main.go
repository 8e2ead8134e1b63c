// Command bench is the repository's benchmark: it opens the cluster a
// user gets by default, serves it on a loopback socket, drives it
// through database/sql and reports host-clock numbers, end to end
// (-trace 0) or per layer (-trace 1). See bench/README.md.
//
//	go run ./bench                      every workload, both runs
//	go run ./bench -workload wide_fetch -seed 7 -seconds 15 -trace 0
//	go run ./bench -selfcheck           do two sets of runs agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of the op lists; the program only ever sees the SQL they hold")
		seconds   = flag.Int("seconds", runSeconds, "length of the timed window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		outDir    = flag.String("out", "bench/out", "directory for trace_<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of three runs and compare their medians with BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds))
	}
	if *name == "all" {
		ok := true
		for _, w := range workloads {
			for tr := 0; tr <= 1; tr++ {
				res, err := runOne(w, *seed, *seconds, tr == 1, *outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					os.Exit(1)
				}
				printTable(w, tr == 1, res)
				ok = ok && res.Correct
				runtime.GC()
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runOne(w, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printTable(w, *trace == 1, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runOne(w *workload, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	if traced {
		return runTraced(w, seed, seconds, outDir)
	}
	return runEndToEnd(w, seed, seconds)
}

// subWindows is how many fresh clusters an end-to-end run measures on,
// each for a fifth of -seconds. Five set-ups give setup_s its median;
// and because the seed's memdb keeps every composition table, a young
// cluster keeps the heap (and its collector's cycles) small enough that
// a run's numbers do not hinge on where one multi-second GC cycle falls.
const subWindows = 5

// lists builds the run's seeded inputs.
func lists(w *workload, seed int64, seconds int) (ops []op, writes []string) {
	ops = w.ops(seed, seconds)
	if w.writer {
		writes = refreshStatements(seed, seconds)
	}
	return ops, writes
}

// checkFirst runs what only the first cluster of a run needs: the
// wide_fetch row-count oracle and the correctness gate.
func checkFirst(e *env, w *workload, ops []op) (checked int, errs []error, err error) {
	if w.name == "wide_fetch" {
		if err := wideOracle(e, ops); err != nil {
			return 0, nil, err
		}
	}
	checked, errs = gate(e, w, ops)
	return checked, errs, nil
}

// writesFrom is the refresh list from the i-th of n equal shares on,
// cut at a block boundary so every window starts with inserts.
func writesFrom(writes []string, i, n int) []string {
	perBlock := 4 * refreshOrders
	return writes[len(writes)/perBlock*i/n*perBlock:]
}

// finish folds the gate's and the windows' failures into the result and
// reports them on standard error.
func finish(res *result, w *workload, checked int, errs []error, wins ...*window) {
	res.Attempted = checked
	res.Failed = len(errs)
	for _, win := range wins {
		res.Attempted += win.ops() + len(win.writes) + win.failed
		res.Failed += win.failed
		if win.firstErr != nil {
			errs = append(errs, win.firstErr)
		}
	}
	res.Correct = res.Failed == 0
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}
}

// runEndToEnd is the -trace 0 run: tracing off, the handler is the
// cluster itself, and only what a user would see is measured.
func runEndToEnd(w *workload, seed int64, seconds int) (*result, error) {
	ops, writes := lists(w, seed, seconds)
	var (
		total   window
		setups  []float64
		checked int
		errs    []error
	)
	for i := 0; i < subWindows; i++ {
		e, d, err := setup(w, false, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			if checked, errs, err = checkFirst(e, w, ops); err != nil {
				e.close()
				return nil, err
			}
		}
		win := runWindow(e, w, ops, total.nextOp, writesFrom(writes, i, subWindows), w.clients,
			time.Duration(seconds)*time.Second/subWindows)
		if w.writer {
			errs = append(errs, checkReplicas(e.c)...)
		}
		total.add(win)
		e.close()
		runtime.GC() // the closed cluster is garbage; collect it before the next one loads
	}
	if total.ops() == 0 {
		return nil, fmt.Errorf("no op completed: %v", total.firstErr)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	lat := total.latencies(-1)
	n := float64(total.ops())
	p50, _ := percentile(lat, 50)
	values := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       n / total.elapsed.Seconds(),
		"lat_p50_ms":      p50,
		"rows_per_s":      float64(total.rows()) / total.elapsed.Seconds(),
		"cpu_ms_per_op":   millis(total.used.cpu) / n,
		"alloc_kb_per_op": float64(total.used.totalAlloc) / 1024 / n,
		"peak_rss_mb":     rss,
	}
	res := &result{}
	if res.Metrics, err = collect(endToEnd, values); err != nil {
		return nil, err
	}
	finish(res, w, checked, errs, &total)
	return res, nil
}

// counters is every program counter the per-layer list reads, taken at
// both ends of the untraced window.
type counters struct {
	subQueries, svp, passThrough, steals, requeues, hedges, blockedWrites int64
	segBuilt, segPruned, segScanned                                       int64
	cacheHits, cacheMisses                                                int64
	shed, queued                                                          int64
	retries, failovers, breakerTrips                                      int64
	morsels, morselSteals                                                 int64
	poolHits, poolMisses                                                  int64
	frames, bytesOut                                                      int64
	modelled                                                              time.Duration
}

func readCounters(e *env) counters {
	st, ctl, adm, wire := e.c.Stats(), e.c.ControllerStats(), e.c.AdmissionStats(), e.srv.Stats()
	k := counters{
		subQueries: st.SubQueries, svp: st.SVPQueries, passThrough: st.PassThrough,
		steals: st.AVPSteals, requeues: st.AVPRequeues, hedges: st.Hedges, blockedWrites: st.BlockedWrites,
		segBuilt: st.SegmentsBuilt, segPruned: st.SegmentsPruned, segScanned: st.SegmentsScanned,
		cacheHits: st.CacheHits + st.CachePartialHits, cacheMisses: st.CacheMisses + st.CachePartialMisses,
		shed: adm.Shed, queued: adm.Queued,
		retries: ctl.TransientRetries + st.BackoffRetries + st.SubQueryRetries, failovers: ctl.ReadFailovers, breakerTrips: ctl.BreakerTrips,
		frames: wire.FramesIn + wire.FramesOut, bytesOut: wire.BytesOut,
	}
	hits, misses := e.c.NodeIOStats()
	for i := range hits {
		k.poolHits += hits[i]
		k.poolMisses += misses[i]
	}
	_, nodes, eng, ctlr := e.c.Internals()
	for _, nd := range nodes {
		_, m, s := nd.ParallelStats()
		k.morsels += m
		k.morselSteals += s
		k.modelled += nd.Meter().Virtual()
	}
	k.modelled += eng.NetMeter().Virtual() + ctlr.NetMeter().Virtual()
	return k
}

// runTraced is the -trace 1 run. An untraced window of half the length
// gives the counters, the process-wide numbers and the client's view;
// the layer probes then run on that idle cluster; a second cluster
// opened with Config.Trace replays the list for a quarter of the length
// and gives the spans. Both windows use one reader so that their ops
// line up, whatever the workload's client count.
func runTraced(w *workload, seed int64, seconds int, outDir string) (*result, error) {
	values := make(map[string]float64)
	ops, writes, checked, errs, plain, err := untracedHalf(w, seed, seconds, values)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the first cluster is garbage by now; do not let it pace the second one's collector

	te, _, err := setup(w, true, seed)
	if err != nil {
		return nil, err
	}
	defer te.close()
	te.handler.reset()
	skip := len(te.c.SlowLog())
	tw := runWindow(te, w, ops, 0, writes, 1, time.Duration(seconds)*time.Second/4)
	if w.writer {
		errs = append(errs, checkReplicas(te.c)...)
	}
	reads, hwrites := te.handler.snapshot()
	trees, err := stitch(tw, reads, te.c.SlowLog(), skip)
	if err != nil {
		return nil, err
	}
	minCover := spanMetrics(trees, values)
	if values["core.phase_cover_pct"] < 90 {
		errs = append(errs, fmt.Errorf("named phases cover %.1f%% of the query roots (least covered root %.1f%%), want >= 90%%",
			values["core.phase_cover_pct"], minCover))
	}

	// Tracing overhead: the same ops, one reader, traced against not.
	common := min(plain.ops(), tw.ops())
	values["trace.overhead_pct"] = 100 * (ratio(prefixP50(tw, common), prefixP50(plain, common)) - 1)

	res := &result{}
	if res.Metrics, err = collect(perLayer, values); err != nil {
		return nil, err
	}
	finish(res, w, checked, errs, plain, tw)

	tf := &traceFile{Workload: w.name, Seed: seed, Ops: len(trees), Metrics: values, Spans: trees}
	for _, iv := range hwrites {
		tf.Writes = append(tf.Writes, &span{Name: "handler-exec", Start: int64(iv.start.Sub(tw.start)), End: int64(iv.end.Sub(tw.start))})
	}
	if err := writeTrace(outDir, tf); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// untracedHalf is the traced run's first cluster: gate, untraced window,
// counters and layer probes. The cluster is closed and unreferenced when
// it returns.
func untracedHalf(w *workload, seed int64, seconds int, values map[string]float64) (ops []op, writes []string, checked int, errs []error, plain *window, err error) {
	ops, writes = lists(w, seed, seconds)
	e, _, err := setup(w, false, seed)
	if err != nil {
		return nil, nil, 0, nil, nil, err
	}
	defer e.close()
	if checked, errs, err = checkFirst(e, w, ops); err != nil {
		return nil, nil, 0, nil, nil, err
	}
	before := readCounters(e)
	plain = runWindow(e, w, ops, 0, writes, 1, time.Duration(seconds)*time.Second/2)
	after := readCounters(e)
	runtime.GC()
	liveAfter := readProc().heapAlloc
	if w.writer {
		errs = append(errs, checkReplicas(e.c)...)
	}
	if plain.ops() == 0 {
		return nil, nil, 0, nil, nil, fmt.Errorf("no op completed: %v", plain.firstErr)
	}
	counterMetrics(plain, before, after, liveAfter, values)
	clientMetrics(w, plain, values)
	if err := layerProbes(e, ops, writes, values); err != nil {
		return nil, nil, 0, nil, nil, err
	}
	return ops, writes, checked, errs, plain, nil
}

// prefixP50 is the median latency of the window's first n reads.
func prefixP50(w *window, n int) float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = w.reads[i].ms()
	}
	return median(ms)
}

func counterMetrics(win *window, a, b counters, liveAfter uint64, into map[string]float64) {
	n := float64(win.ops())
	d := func(x, y int64) float64 { return float64(y - x) }
	into["core.subqueries_per_op"] = d(a.subQueries, b.subQueries) / n
	into["core.svp_share"] = ratio(d(a.svp, b.svp), d(a.svp, b.svp)+d(a.passThrough, b.passThrough))
	into["core.steals_per_op"] = d(a.steals, b.steals) / n
	into["core.requeues"] = d(a.requeues, b.requeues)
	into["core.hedges"] = d(a.hedges, b.hedges)
	into["core.blocked_writes"] = d(a.blockedWrites, b.blockedWrites)
	into["engine.morsels_per_op"] = d(a.morsels, b.morsels) / n
	into["engine.morsel_steals_per_op"] = d(a.morselSteals, b.morselSteals) / n
	into["storage.bufferpool_hit_rate"] = ratio(d(a.poolHits, b.poolHits), d(a.poolHits, b.poolHits)+d(a.poolMisses, b.poolMisses))
	into["storage.segments_built"] = d(a.segBuilt, b.segBuilt)
	into["storage.segments_pruned_share"] = ratio(d(a.segPruned, b.segPruned), d(a.segPruned, b.segPruned)+d(a.segScanned, b.segScanned))
	into["cache.hit_rate"] = ratio(d(a.cacheHits, b.cacheHits), d(a.cacheHits, b.cacheHits)+d(a.cacheMisses, b.cacheMisses))
	into["admission.shed"] = d(a.shed, b.shed)
	into["admission.queued"] = d(a.queued, b.queued)
	into["cluster.retries"] = d(a.retries, b.retries)
	into["cluster.failovers"] = d(a.failovers, b.failovers)
	into["cluster.breaker_trips"] = d(a.breakerTrips, b.breakerTrips)
	into["proto.frames_per_op"] = d(a.frames, b.frames) / n
	into["proto.bytes_per_row"] = ratio(d(a.bytesOut, b.bytesOut), float64(win.rows()))

	modelledMs := millis(b.modelled-a.modelled) / n
	into["costmodel.modelled_ms_per_op"] = modelledMs
	into["costmodel.modelled_over_host"] = ratio(modelledMs, mean(win.latencies(-1)))

	into["runtime.allocs_per_op"] = float64(win.used.mallocs) / n
	into["runtime.gc_cycles"] = float64(win.used.numGC)
	into["runtime.gc_cpu_frac"] = win.used.gcCPUFrac
	into["runtime.gc_pause_total_ms"] = float64(win.used.pauseNs) / 1e6
	into["runtime.heap_growth_kb_per_op"] = (float64(liveAfter) - float64(win.liveBefore)) / 1024 / n
}

func clientMetrics(w *workload, win *window, into map[string]float64) {
	for _, c := range olapClasses {
		into["client."+c+"_p50_ms"] = 0
	}
	if len(w.classes) == len(olapClasses) {
		for i, c := range w.classes {
			if lat := win.latencies(i); len(lat) > 0 {
				into["client."+c+"_p50_ms"], _ = percentile(lat, 50)
			}
		}
	}
	into["client.rows_per_op"] = float64(win.rows()) / float64(win.ops())
	into["client.lat_p95_ms"] = tailPercentile(win.latencies(-1), 95)
	into["client.lat_p99_ms"] = tailPercentile(win.latencies(-1), 99)

	var lat, late []float64
	for _, s := range win.writes {
		lat = append(lat, millis(s.end-s.due))
		late = append(late, millis(s.sent-s.due))
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	into["client.write_lat_p50_ms"], into["client.write_lat_p95_ms"], into["client.gen_late_p95_ms"] = 0, 0, 0
	if len(lat) > 0 {
		into["client.write_lat_p50_ms"], _ = percentile(lat, 50)
		into["client.write_lat_p95_ms"] = tailPercentile(lat, 95)
		into["client.gen_late_p95_ms"] = tailPercentile(late, 95)
	}
}

// printTable prints every metric by name with its unit.
func printTable(w *workload, traced bool, res *result) {
	defs, kind := endToEnd, "end to end, tracing off"
	if traced {
		defs, kind = perLayer, "per layer, traced run"
	}
	fmt.Printf("== %s (%s): correct=%v attempted=%d failed=%d\n", w.name, kind, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("%-34s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}
