// Command apuamad runs a database cluster and serves it over TCP.
//
// It assembles the full paper stack — n replicated node engines, the
// C-JDBC-equivalent controller, and the Apuama Engine — optionally
// pre-loaded with TPC-H data, and listens with the wire protocol
// (internal/proto) that internal/driver's database/sql driver speaks.
//
// Usage:
//
//	apuamad -nodes 8 -sf 0.01 -addr 127.0.0.1:7654
//	apuamad -nodes 8 -sf 0.01 -baseline   # inter-query parallelism only
//
// With -metrics-addr it additionally serves observability over HTTP:
//
//	GET /metrics         Prometheus text exposition of the cluster registry
//	GET /debug/slowlog   JSON span trees of recent slow queries (needs -trace)
//	GET /debug/cache     JSON counters of the result cache (needs -cache-entries)
//	GET /debug/admission JSON counters of the overload-protection subsystem
//	                     (needs -max-concurrent / -memory-budget / -brownout)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	apuama "apuama"
	"apuama/internal/proto"
)

// serveObs starts the observability HTTP listener: /metrics in
// Prometheus text format and /debug/slowlog as a JSON array of span
// trees (empty unless the daemon runs with -trace).
func serveObs(addr string, c *apuama.Cluster) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := c.WriteMetrics(w); err != nil {
			log.Printf("apuamad: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := c.SlowLog()
		if traces == nil {
			traces = []apuama.QueryTrace{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traces); err != nil {
			log.Printf("apuamad: /debug/slowlog: %v", err)
		}
	})
	mux.HandleFunc("/debug/cache", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.CacheStats()); err != nil {
			log.Printf("apuamad: /debug/cache: %v", err)
		}
	})
	mux.HandleFunc("/debug/admission", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.AdmissionStats()); err != nil {
			log.Printf("apuamad: /debug/admission: %v", err)
		}
	})
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("apuamad: metrics server: %v", err)
		}
	}()
	return srv, nil
}

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "number of replica nodes")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor to preload (0 = empty cluster)")
		seed     = flag.Int64("seed", 1, "TPC-H generator seed")
		addr     = flag.String("addr", "127.0.0.1:7654", "listen address")
		baseline = flag.Bool("baseline", false, "disable Apuama (plain C-JDBC-style cluster)")
		avp      = flag.Bool("avp", false, "use Adaptive Virtual Partitioning instead of SVP")
		stale    = flag.Int64("staleness", 0, "relaxed-freshness bound in writes (0 = strict barrier)")
		sleep    = flag.Bool("realtime", false, "sleep simulated latencies (realistic timing)")
		par      = flag.Int("parallelism", 0, "intra-node morsel-driven degree per node engine (0 = auto, 1 = serial)")
		avpGran  = flag.Int("avp-granularity", 0, "fine virtual partitions per configured node (0 = auto, 1 = coarse one-range-per-node)")
		columnar = flag.Bool("columnar", false, "enable the columnar segment store with zone-map pruning")
		mqo      = flag.Bool("mqo", false, "enable multi-query optimization: cooperative shared scans and common sub-plan sharing")
		mqoWin   = flag.Duration("mqo-window", 0, "admission batching window for MQO bursts (0 = 3ms default when -mqo)")

		maxConc   = flag.Int("max-concurrent", 0, "admission gate capacity in weighted query slots (0 = gate off)")
		maxQueue  = flag.Int("max-queue", 0, "admission wait-queue bound (default 4 x -max-concurrent)")
		memBudget = flag.Int64("memory-budget", 0, "cluster-wide composition-memory budget in bytes (0 = unlimited)")
		brownout  = flag.Bool("brownout", false, "enable the graceful-degradation ladder under sustained overload")
		slowKill  = flag.Float64("slow-kill", 0, "cancel queries running past this multiple of their class budget (0 = off)")

		cacheEntries = flag.Int("cache-entries", 0, "result-cache capacity in composed results (0 = caching off)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (with -cache-entries)")
		cacheTTL     = flag.Duration("cache-ttl", 0, "result-cache entry TTL (0 = no expiry)")
		cacheStale   = flag.Int64("cache-stale", 0, "serve cached results up to this many committed writes behind the head")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/slowlog and /debug/cache on this address (e.g. 127.0.0.1:7655; empty = off)")
		trace       = flag.Bool("trace", false, "record per-query lifecycle span trees into the slow-query log")
		slowLogSize = flag.Int("slowlog-size", 128, "slow-query log ring size")
		slowerThan  = flag.Duration("slower-than", 0, "only log queries at least this slow (0 = all traced queries)")
	)
	flag.Parse()

	cfg := apuama.Config{
		Nodes: *nodes, DisableSVP: *baseline, UseAVP: *avp, MaxStaleness: *stale,
		Parallelism: *par, AVPGranularity: *avpGran, Columnar: *columnar,
		MQO: *mqo, MQOWindow: *mqoWin,
		MaxConcurrent: *maxConc, MaxQueue: *maxQueue, MemoryBudget: *memBudget,
		Brownout: *brownout, SlowKillMultiple: *slowKill,
		Trace: *trace, SlowLogSize: *slowLogSize, SlowQueryThreshold: *slowerThan,
	}
	if *cacheEntries > 0 {
		cfg.Cache = apuama.CacheConfig{
			Entries:        *cacheEntries,
			MaxBytes:       *cacheBytes,
			TTL:            *cacheTTL,
			MaxStaleEpochs: *cacheStale,
		}
	}
	cfg.Cost = apuama.DefaultCost()
	cfg.Cost.RealSleep = *sleep
	c, err := apuama.Open(cfg)
	if err != nil {
		log.Fatalf("apuamad: %v", err)
	}
	if *sf > 0 {
		log.Printf("loading TPC-H at SF %g ...", *sf)
		if err := c.LoadTPCH(*sf, *seed); err != nil {
			log.Fatalf("apuamad: load: %v", err)
		}
		for table, pages := range c.SizeReport() {
			log.Printf("  %-10s %6d pages", table, pages)
		}
	}
	srv, err := proto.Serve(*addr, c, proto.Options{Metrics: c.Metrics()})
	if err != nil {
		log.Fatalf("apuamad: %v", err)
	}
	c.AttachWireServer(srv)
	var obsSrv *http.Server
	if *metricsAddr != "" {
		obsSrv, err = serveObs(*metricsAddr, c)
		if err != nil {
			log.Fatalf("apuamad: metrics listener: %v", err)
		}
		fmt.Printf("apuamad: observability on http://%s/metrics and /debug/slowlog\n", *metricsAddr)
	}
	mode := "apuama (inter- + intra-query parallelism)"
	if *baseline {
		mode = "baseline (inter-query parallelism only)"
	}
	fmt.Printf("apuamad: %d nodes, %s, listening on %s\n", *nodes, mode, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\napuamad: shutting down")
	if obsSrv != nil {
		obsSrv.Close()
	}
	if err := srv.Close(); err != nil {
		log.Printf("apuamad: close: %v", err)
	}
}
