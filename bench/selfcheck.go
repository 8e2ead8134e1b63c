package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// childRun runs one workload in a fresh process (peak RSS and the heap
// are per process) and parses the result line.
func childRun(workload string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs two interleaved sets of three runs of every
// workload on the current tree, on the same three seeds, and prints per
// workload and end-to-end metric the two set medians, their difference
// and the bound. It returns 1 when either set is worse than the other
// by more than the bound: the benchmark then cannot tell a regression
// of that size from its own noise.
func runSelfcheck(seed int64, seconds int) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck runs from the repository root: %v\n", err)
		return 2
	}
	const runsPerSet = 3
	status := 0
	fmt.Printf("%-14s %-16s %12s %12s %8s %7s\n", "workload", "metric", "set A", "set B", "diff", "bound")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runsPerSet; i++ {
			for s := range sets {
				res, err := childRun(w.name, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
					return 1
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, mm := range m.EndToEnd {
			a, b := median(sets[0][mm.Name]), median(sets[1][mm.Name])
			diff := worseBy(a, b, mm.Better)
			if d := worseBy(b, a, mm.Better); d > diff {
				diff = d
			}
			verdict := ""
			if diff > mm.Bound {
				verdict = "  DISAGREE"
				status = 1
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %7.1f%% %6.1f%%%s\n", w.name, mm.Name, a, b, 100*diff, 100*mm.Bound, verdict)
		}
	}
	return status
}
