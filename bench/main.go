// Command bench is CLAM's repeatable benchmark: six closed-loop workloads
// (three of them gated by BENCHMARK.json), eight end-to-end metrics each, and
// a traced run that prices every layer from outside. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench -seed 1                      every workload, untraced
//	go run ./bench -workload call_unix -trace 1 one workload's per-layer run
//	go run ./bench -agree a.jsonl b.jsonl       compare two sets of runs
//
// Client, server and any middle tier run in this one process, on one core.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Gated shape of a run: five set-ups, sharing among them one-second segments
// for as long as -seconds says (30 under BENCHMARK.json).
const (
	setups      = 5
	segLen      = time.Second
	minSegments = 5
)

// environment is printed with every run so that two result files can be
// told apart.
type environment struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	SegmentS   float64        `json:"segment_s"`
	Segments   int            `json:"segments"`
	Setups     int            `json:"setups"`
	Warmup     map[string]int `json:"warmup_samples"`
}

// record is one line of an -out file.
type record struct {
	Env environment `json:"env"`
	result
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 30, "measured time per workload, in one-second segments")
		trace   = flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
		out     = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		outDir  = flag.String("outdir", "bench/out", "directory for trace files and the run's sockets")
		agree   = flag.Bool("agree", false, "compare the result files given as arguments under BENCHMARK.json's bounds")
	)
	flag.Parse()

	if *agree {
		return agreeMain(flag.Args())
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < minSegments || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 5 (one segment each), -trace 0 or 1")
		return 2
	}

	// One core: generator, client, server and any middle tier take turns on
	// one thread, so no goroutine hand-off wakes a sleeping thread. On the
	// reference box (2 virtual cores of a shared host) those wake-ups go
	// through the hypervisor and cost whatever the host's load makes them
	// cost; with two cores, runs of the same code differed by a third.
	runtime.GOMAXPROCS(1)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := config{
		seed: *seed, segments: int(*seconds), segLen: segLen, setups: setups, warmupDiv: 1, minTail: 10,
		trace: *trace == 1, outDir: *outDir, tmpDir: tmp, probeIters: probeIters, sideCalls: sideCalls,
	}
	if cfg.trace {
		cfg.setups = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: *seed, SegmentS: cfg.segLen.Seconds(), Segments: cfg.segments, Setups: cfg.setups,
		Warmup: map[string]int{},
	}
	for _, w := range workloads {
		env.Warmup[w.name] = w.warmup
	}
	if b, err := json.Marshal(env); err == nil {
		fmt.Printf("env %s\n", b)
	}

	status := 0
	for _, w := range todo {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(res)
		if !res.Correct {
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
			}
			status = 1
		}
		if *out != "" {
			if err := appendRecord(*out, record{Env: env, result: *res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	return status
}

// printResult prints every metric as "workload/metric value unit" and then,
// as the last line, the result object the acceptance driver reads.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s/%s %.6g %s\n", res.Workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s: %d latency samples in %d segments, %d ops attempted, %d failed",
		res.Workload, res.Samples, res.Segments, res.Attempted, res.Failed)
	if !res.Trace {
		fmt.Printf("; lat_p99 %.6g us (not gated)", res.LatP99us)
	}
	fmt.Println()
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	b, err := json.Marshal(last)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Println(string(b))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit names the source being measured: the VCS stamp if the toolchain
// left one, else what .git says, else "unknown" (the acceptance driver's
// checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(".git/" + rest)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}
