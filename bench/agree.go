package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// -agree compares two sets of runs of the benchmark under the bounds
// BENCHMARK.json fixes, one verdict per workload × end-to-end metric. With
// one file it prints that set's own run-to-run spreads. It is how the
// bounds were set (two sets of the same commit must agree) and how a later
// change shows that it regressed nothing.

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
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

// resultSet is the untraced runs of one file: workload → metric → one
// value per run.
type resultSet map[string]map[string][]float64

func readSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		ms := set[rec.Workload]
		if ms == nil {
			ms = map[string][]float64{}
			set[rec.Workload] = ms
		}
		for name, m := range rec.Metrics {
			ms[name] = append(ms[name], m.Value)
		}
	}
	return set, sc.Err()
}

// verdict judges candidate b against reference a for one metric.
//
//	unresolved  either set's spread (interquartile distance over median)
//	            is wider than the bound: the runs cannot tell
//	regression  b's median is worse than a's by more than the bound
//	ok          otherwise
//
// worse is how much worse b's median is, as a share of a's (negative when
// b is better); spread is the wider of the two sets' spreads.
func verdict(a, b []float64, better string, bound float64) (v string, worse, widest float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if better == "higher" {
		worse = -worse
	}
	widest = max(spread(a), spread(b))
	switch {
	case widest > bound:
		v = "unresolved"
	case worse > bound:
		v = "regression"
	default:
		v = "ok"
	}
	return v, worse, widest
}

func agreeMain(files []string) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree takes one result file (spreads) or two (verdicts)")
		return 2
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sets := make([]resultSet, len(files))
	for i, f := range files {
		if sets[i], err = readSet(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	names := make([]string, 0, len(sets[0]))
	for w := range sets[0] {
		names = append(names, w)
	}
	sort.Strings(names)

	status := 0
	if len(files) == 1 {
		fmt.Printf("%-12s %-24s %5s %14s %8s %8s\n", "workload", "metric", "runs", "median", "spread", "bound")
		for _, w := range names {
			for _, m := range man.EndToEnd {
				vs := sets[0][w][m.Name]
				note := ""
				if s := spread(vs); s > m.Bound {
					note, status = "  wider than the bound", 1
				} else if s > m.Bound/3 {
					note = "  wider than a third of the bound"
				}
				fmt.Printf("%-12s %-24s %5d %14.6g %8.4f %8.2f%s\n", w, m.Name, len(vs), median(vs), spread(vs), m.Bound, note)
			}
		}
		return status
	}
	fmt.Printf("%-12s %-24s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range man.EndToEnd {
			a, b := sets[0][w][m.Name], sets[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-12s %-24s missing from one set\n", w, m.Name)
				status = 1
				continue
			}
			v, worse, widest := verdict(a, b, m.Better, m.Bound)
			if v != "ok" {
				status = 1
			}
			fmt.Printf("%-12s %-24s %14.6g %14.6g %+8.4f %8.4f %8.2f  %s\n", w, m.Name, median(a), median(b), worse, widest, m.Bound, v)
		}
	}
	return status
}
