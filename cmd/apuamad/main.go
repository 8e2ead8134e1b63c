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
	cfg := apuama.Config{Cost: apuama.DefaultCost()}
	flag.IntVar(&cfg.Nodes, "nodes", 4, "number of replica nodes")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to preload (0 = empty cluster)")
	seed := flag.Int64("seed", 1, "TPC-H generator seed")
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	flag.BoolVar(&cfg.Cost.RealSleep, "realtime", false, "sleep simulated latencies (realistic timing)")

	eng := &cfg.Engine
	eng.RegisterFlags(flag.CommandLine)
	avp := flag.Bool("avp", false, "use Adaptive Virtual Partitioning instead of SVP")
	flag.Int64Var(&eng.MaxStaleness, "staleness", 0, "relaxed-freshness bound in writes (0 = strict barrier)")

	adm := &eng.Admission
	flag.IntVar(&adm.MaxConcurrent, "max-concurrent", 0, "admission gate capacity in weighted query slots (0 = gate off)")
	flag.IntVar(&adm.MaxQueue, "max-queue", 0, "admission wait-queue bound (default 4 x -max-concurrent)")
	flag.Int64Var(&adm.MemoryBudget, "memory-budget", 0, "cluster-wide composition-memory budget in bytes (0 = unlimited)")
	flag.BoolVar(&adm.Brownout, "brownout", false, "enable the graceful-degradation ladder under sustained overload")
	flag.Float64Var(&adm.KillMultiple, "slow-kill", 0, "cancel queries running past this multiple of their class budget (0 = off)")

	cache := &eng.Cache
	flag.IntVar(&cache.Entries, "cache-entries", 0, "result-cache capacity in composed results (0 = caching off)")
	flag.Int64Var(&cache.MaxBytes, "cache-bytes", 64<<20, "result-cache byte budget (with -cache-entries)")
	flag.DurationVar(&cache.TTL, "cache-ttl", 0, "result-cache entry TTL (0 = no expiry)")
	flag.Int64Var(&cache.MaxStaleEpochs, "cache-stale", 0, "serve cached results up to this many committed writes behind the head")

	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/slowlog and /debug/cache on this address (e.g. 127.0.0.1:7655; empty = off)")
	flag.BoolVar(&cfg.Trace, "trace", false, "record per-query lifecycle span trees into the slow-query log")
	flag.IntVar(&cfg.SlowLogSize, "slowlog-size", 128, "slow-query log ring size")
	flag.DurationVar(&cfg.SlowQueryThreshold, "slower-than", 0, "only log queries at least this slow (0 = all traced queries)")
	flag.Parse()
	if *avp {
		eng.Strategy = apuama.AVP
	}

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
	if eng.DisableSVP {
		mode = "baseline (inter-query parallelism only)"
	}
	fmt.Printf("apuamad: %d nodes, %s, listening on %s\n", cfg.Nodes, mode, srv.Addr())

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
