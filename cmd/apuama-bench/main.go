// Command apuama-bench regenerates the paper's evaluation figures and
// the ablation studies. Each experiment prints a progress stream and a
// final paper-style table (raw values plus the normalized view the paper
// plots).
//
// Usage:
//
//	apuama-bench -exp all                 # the five paper figures
//	apuama-bench -exp fig2 -nodes 1,2,4,8
//	apuama-bench -exp ablations -quick
//	apuama-bench -exp fig4a -baseline     # inter-query-only comparison
//	apuama-bench -exp fig2 -json out.json # machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"apuama/internal/experiments"
)

func main() {
	engine := experiments.Default().Engine
	engine.RegisterFlags(flag.CommandLine)
	var (
		exp      = flag.String("exp", "all", "fig2|fig3a|fig3b|fig4a|fig4b|all|ablations|freshness|strategy|skew|cache|overload|steal|columnar|mqo")
		sf       = flag.Float64("sf", 0, "TPC-H scale factor (0 = default)")
		nodesArg = flag.String("nodes", "", "comma-separated node counts (default 1,2,4,8,16,32)")
		repeats  = flag.Int("repeats", 0, "runs per isolated query (default 5)")
		updates  = flag.Int("updates", 0, "refresh orders for mixed workloads")
		streams  = flag.Int("streams", 0, "read streams for throughput workloads")
		quick    = flag.Bool("quick", false, "small smoke configuration")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")
		trace    = flag.Bool("trace", false, "trace each TPC-H query once and print the per-phase latency breakdown")
		jsonOut  = flag.String("json", "", "also write the figures as JSON to this file (for plotting/CI diffing)")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Engine = engine
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *nodesArg != "" {
		var nodes []int
		for _, part := range strings.Split(*nodesArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				log.Fatalf("apuama-bench: bad -nodes %q", *nodesArg)
			}
			nodes = append(nodes, n)
		}
		cfg.Nodes = nodes
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *updates > 0 {
		cfg.UpdateOrders = *updates
	}
	if *streams > 0 {
		cfg.ReadStreams = *streams
	}

	if *trace {
		if err := runTrace(cfg); err != nil {
			log.Fatalf("apuama-bench: trace: %v", err)
		}
		return
	}

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}

	fmt.Printf("apuama-bench: exp=%s sf=%g nodes=%v repeats=%d streams=%d updates=%d baseline=%v\n",
		*exp, cfg.SF, cfg.Nodes, cfg.Repeats, cfg.ReadStreams, cfg.UpdateOrders, cfg.Engine.DisableSVP)
	start := time.Now()

	var figs []*experiments.Figure
	var err error
	switch *exp {
	case "fig2":
		figs, err = one(experiments.Fig2, cfg, progress)
	case "fig3a":
		figs, err = one(experiments.Fig3a, cfg, progress)
	case "fig3b":
		figs, err = one(experiments.Fig3b, cfg, progress)
	case "fig4a":
		figs, err = one(experiments.Fig4a, cfg, progress)
	case "fig4b":
		figs, err = one(experiments.Fig4b, cfg, progress)
	case "all":
		figs, err = experiments.All(cfg, progress)
	case "ablations":
		figs, err = experiments.Ablations(cfg, progress)
	case "freshness":
		figs, err = one(experiments.FreshnessExperiment, cfg, progress)
	case "strategy":
		figs, err = one(experiments.AblationStrategy, cfg, progress)
	case "skew":
		figs, err = one(experiments.AblationSkew, cfg, progress)
	case "cache":
		figs, err = one(experiments.CacheExperiment, cfg, progress)
	case "overload":
		figs, err = one(experiments.OverloadExperiment, cfg, progress)
	case "steal":
		figs, err = one(experiments.StealExperiment, cfg, progress)
	case "columnar":
		figs, err = one(experiments.ColumnarExperiment, cfg, progress)
	case "mqo":
		figs, err = one(experiments.MQOExperiment, cfg, progress)
	default:
		log.Fatalf("apuama-bench: unknown experiment %q", *exp)
	}
	if err != nil {
		log.Fatalf("apuama-bench: %v", err)
	}
	for _, fig := range figs {
		fmt.Println()
		fig.Fprint(os.Stdout)
		if fig.ID == "fig2" || strings.HasPrefix(fig.ID, "fig3") || strings.HasPrefix(fig.ID, "fig4") {
			fmt.Println()
			fig.Normalized().Fprint(os.Stdout)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, *exp, cfg, figs); err != nil {
			log.Fatalf("apuama-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}
	fmt.Printf("\ntotal time: %v\n", time.Since(start).Round(time.Second))
}

// benchReport is the -json output document: the run's configuration
// alongside the raw figures, stable enough to diff across runs.
type benchReport struct {
	Experiment string                `json:"experiment"`
	SF         float64               `json:"sf"`
	Nodes      []int                 `json:"nodes"`
	Repeats    int                   `json:"repeats"`
	Streams    int                   `json:"streams"`
	Updates    int                   `json:"updates"`
	Baseline   bool                  `json:"baseline"`
	AVPGran    int                   `json:"avp_granularity"`
	Columnar   bool                  `json:"columnar"`
	MQO        bool                  `json:"mqo"`
	Figures    []*experiments.Figure `json:"figures"`
}

func writeJSON(path, exp string, cfg experiments.Config, figs []*experiments.Figure) error {
	doc := benchReport{
		Experiment: exp,
		SF:         cfg.SF,
		Nodes:      cfg.Nodes,
		Repeats:    cfg.Repeats,
		Streams:    cfg.ReadStreams,
		Updates:    cfg.UpdateOrders,
		Baseline:   cfg.Engine.DisableSVP,
		AVPGran:    cfg.Engine.AVPGranularity,
		Columnar:   cfg.Engine.Columnar,
		MQO:        cfg.Engine.MQO,
		Figures:    figs,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func one(run func(experiments.Config, io.Writer) (*experiments.Figure, error), cfg experiments.Config, w io.Writer) ([]*experiments.Figure, error) {
	fig, err := run(cfg, w)
	if err != nil {
		return nil, err
	}
	return []*experiments.Figure{fig}, nil
}
