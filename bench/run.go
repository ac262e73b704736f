package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// config is one invocation's shape. The defaults in main.go are the gated
// ones; tests shrink them.
type config struct {
	seed     uint64
	segments int           // measured segments; see fastest for how they are summarised
	segLen   time.Duration // length of one segment
	setups   int           // set-ups per run; setup_s is the fastest, the footprint their median
	// warmupDiv divides every workload's warm-up count (tests only; 1 on a
	// real run, where the count is a constant of the workload).
	warmupDiv int
	// minTail is how many samples must lie beyond p99 in every segment.
	minTail uint64
	trace   bool
	broken  bool   // boot the workload with deliberately wrong handlers
	outDir  string // trace files are written here
	tmpDir  string // sockets live here; the caller removes it at exit
	// probeIters and sideCalls size the traced run's layer probes and side
	// experiments (constants on a real run; tests shrink them).
	probeIters, sideCalls int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Workload  string `json:"workload"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Samples   int64  `json:"samples"` // latency samples in the measured phase
	Segments  int    `json:"segments"`
	// LatP99us is the untraced run's 99th percentile, summarised like
	// lat_p50_us. It is printed for the reader and not a gated metric.
	LatP99us float64 `json:"lat_p99_us,omitempty"`
	// SegmentValues holds each timed metric's per-segment values, for
	// whoever wants to try another summary on an -out file.
	SegmentValues map[string][]float64 `json:"segment_values,omitempty"`
	Metrics       map[string]metric    `json:"metrics"`
	// Problems lists the first few verification failures, for the reader.
	Problems []string `json:"problems,omitempty"`
}

func (res *result) set(d metricDef, v float64) { res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit} }

func (res *result) fail(err error) {
	res.Failed++
	if len(res.Problems) < 5 {
		res.Problems = append(res.Problems, err.Error())
	}
}

// maxConsecutiveFailures stops a run whose link is gone instead of letting
// a closed loop spin on instant errors for the rest of the segment.
const maxConsecutiveFailures = 100

// footprint is a live-heap and goroutine sample taken after two GCs (the
// second collects what the first one's finalizers and pool clearing freed).
type footprint struct {
	heap       uint64
	goroutines int
}

func sampleFootprint() footprint {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return footprint{heap: ms.HeapAlloc, goroutines: runtime.NumGoroutine()}
}

// settle waits for the goroutines of a closed instance to exit, so the
// next set-up's baseline does not count them.
func settle(idle int) {
	for i := 0; i < 2000 && runtime.NumGoroutine() > idle; i++ {
		time.Sleep(time.Millisecond)
	}
}

// cpuNs is the process's user+system CPU time. Client, server and any
// middle tier share the process, so this covers every address space's
// share of an op — the cost a closed loop's latency hides.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// segStats is what one measured segment yields.
type segStats struct {
	samples  int64
	wallNs   int64
	cpuNs    int64
	mallocs  uint64
	bytes    uint64
	p50, p99 float64 // ns
}

// fastest summarises a timed metric's per-segment values by the best of
// them: the lowest where lower is better, the highest where higher is.
// Another tenant of the host can only slow a segment, never speed it up, and
// does so for ten seconds and more at a time, so the segments' median (and
// even their quartile) moves with how much of the run was disturbed, while
// the best segment stays put as long as one second of the run was left
// alone. Each segment is itself a median or a rate over tens of thousands of
// samples, so the best of them is not a lucky sample. A change to the
// program moves every segment and therefore the best one just as it would
// the median. The same goes for the set-ups of a run. Counted metrics
// (allocations, bytes, footprint) do not depend on the host and keep the
// median.
func fastest(vs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return slices.Max(vs)
	}
	return slices.Min(vs)
}

// runner carries one workload run.
type runner struct {
	w    *workload
	cfg  config
	res  *result
	st   *stamps
	inst *instance
	lat  *recorder // per-segment latency samples
	tr   *tracer   // nil unless cfg.trace
}

// sample runs one latency sample, verifies it and records it. It reports
// false when the run should stop.
func (r *runner) sample(tr *opTrace, consecutive *int) bool {
	t0 := nowNs()
	end, err := r.inst.op(tr)
	r.lat.add(end - t0)
	r.res.Attempted += int64(r.w.opsPerSample)
	if err == nil {
		err = r.inst.check()
	}
	if err != nil {
		r.res.fail(err)
		r.st.take() // a failed sample's handler stamps must not leak into the next
		*consecutive++
		return *consecutive < maxConsecutiveFailures
	}
	*consecutive = 0
	if tr != nil {
		r.tr.record(t0, end, tr)
	}
	return true
}

// setUp boots the workload and runs its fixed warm-up.
func (r *runner) setUp(n int) error {
	dir := filepath.Join(r.cfg.tmpDir, fmt.Sprintf("setup%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	inst, err := r.w.boot(&rig{dir: dir, seed: r.cfg.seed, env: &handlerEnv{st: r.st, broken: r.cfg.broken}})
	if err != nil {
		return fmt.Errorf("%s: boot: %w", r.w.name, err)
	}
	r.inst = inst
	consecutive := 0
	for i := 0; i < r.w.warmup/r.cfg.warmupDiv; i++ {
		if !r.sample(nil, &consecutive) {
			return fmt.Errorf("%s: warm-up abandoned after %d consecutive failures: %s",
				r.w.name, consecutive, r.res.Problems[0])
		}
	}
	return nil
}

// segment measures for cfg.segLen. The GC beforehand is untimed.
func (r *runner) segment(tr *opTrace) (segStats, error) {
	runtime.GC()
	r.lat.reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNs()
	start := nowNs()
	deadline := start + int64(r.cfg.segLen)
	// On a host slow enough that segLen yields too few samples for a p99
	// with minTail samples beyond it, the segment runs on until it has them
	// (three times segLen at most) rather than failing the run.
	need, limit := 100*r.cfg.minTail, start+3*int64(r.cfg.segLen)
	consecutive := 0
	for now := start; now < deadline || (r.lat.n < need && now < limit); now = nowNs() {
		if !r.sample(tr, &consecutive) {
			return segStats{}, fmt.Errorf("%s: segment abandoned after %d consecutive failures: %s",
				r.w.name, consecutive, r.res.Problems[0])
		}
	}
	wall := nowNs() - start
	cpu := cpuNs() - cpu0
	runtime.ReadMemStats(&m1)
	if beyond := r.lat.beyond(0.99); beyond < r.cfg.minTail {
		return segStats{}, fmt.Errorf("%s: only %d of %d samples lie beyond p99 (need %d): the workload is mis-sized for a %v segment",
			r.w.name, beyond, r.lat.n, r.cfg.minTail, r.cfg.segLen)
	}
	return segStats{
		samples: int64(r.lat.n), wallNs: wall, cpuNs: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		p50: r.lat.percentile(0.50), p99: r.lat.percentile(0.99),
	}, nil
}

// tearDown verifies what only a whole instance can show, closes it and
// waits for its goroutines to go.
func (r *runner) tearDown(idle int) {
	if err := r.inst.finish(); err != nil {
		r.res.fail(err)
	}
	r.inst.close()
	r.inst = nil
	settle(idle)
}

// runWorkload performs one run of w. The measured segments are shared out
// evenly among cfg.setups instances, each booted (timed), sampled for its
// footprint, measured and verified in turn: a disturbance of the host that
// lasts ten seconds then inflates one set-up, not all of them. The traced
// run is given one set-up: its counters are deltas on one instance.
func runWorkload(w *workload, cfg config) (*result, error) {
	r := &runner{
		w: w, cfg: cfg, st: &stamps{}, lat: newRecorder(),
		res: &result{Workload: w.name, Trace: cfg.trace, Metrics: map[string]metric{}},
	}
	if cfg.trace {
		r.tr = newTracer(r.st, cfg.segments)
	}
	defer func() {
		if r.inst != nil {
			r.inst.close()
		}
	}()

	idle := runtime.NumGoroutine()
	var setupS, heapKB, goroutines []float64
	var traced *tracedPhase
	segs := make([]segStats, 0, cfg.segments)
	for n := 0; n < cfg.setups; n++ {
		if r.inst != nil {
			r.tearDown(idle)
		}
		before := sampleFootprint()
		t0 := time.Now()
		if err := r.setUp(n); err != nil {
			return r.res, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		after := sampleFootprint()
		sessions := float64(r.inst.sessions)
		heapKB = append(heapKB, (float64(after.heap)-float64(before.heap))/1024/sessions)
		goroutines = append(goroutines, float64(after.goroutines-before.goroutines)/sessions)

		if cfg.trace && traced == nil {
			// One untraced segment first: the base of trace_overhead_ratio.
			base, err := r.segment(nil)
			if err != nil {
				return r.res, err
			}
			traced = r.tr.begin(r, base)
		}
		for len(segs) < cfg.segments*(n+1)/cfg.setups {
			var tr *opTrace
			if cfg.trace {
				tr = r.tr.segmentStart()
			}
			seg, err := r.segment(tr)
			if err != nil {
				return r.res, err
			}
			segs = append(segs, seg)
			r.res.Samples += seg.samples
		}
	}
	if cfg.trace {
		r.tr.end(r, traced)
	}
	if err := r.inst.finish(); err != nil {
		r.res.fail(err)
	}
	r.res.Correct = r.res.Failed == 0

	r.res.Segments = len(segs)
	ops := float64(w.opsPerSample)
	per := func(f func(s segStats) float64) []float64 {
		vs := make([]float64, len(segs))
		for i, s := range segs {
			vs[i] = f(s)
		}
		return vs
	}
	p50s := per(func(s segStats) float64 { return s.p50 / 1e3 })
	latP50 := fastest(p50s, false)
	if !cfg.trace {
		perOp := func(f func(s segStats) float64) []float64 {
			return per(func(s segStats) float64 { return f(s) / (float64(s.samples) * ops) })
		}
		opsPerS := per(func(s segStats) float64 { return float64(s.samples) * ops / (float64(s.wallNs) / 1e9) })
		p99s := per(func(s segStats) float64 { return s.p99 / 1e3 })
		cpus := perOp(func(s segStats) float64 { return float64(s.cpuNs) / 1e3 })
		r.res.set(mOpsPerS, fastest(opsPerS, true))
		r.res.set(mLatP50, latP50)
		r.res.set(mCPUPerOp, fastest(cpus, false))
		r.res.LatP99us = fastest(p99s, false)
		r.res.SegmentValues = map[string][]float64{
			mOpsPerS.Name: opsPerS, mLatP50.Name: p50s, mCPUPerOp.Name: cpus, "lat_p99_us": p99s,
			mSetupS.Name: setupS,
		}
		r.res.set(mAllocsPerOp, median(perOp(func(s segStats) float64 { return float64(s.mallocs) })))
		r.res.set(mBytesPerOp, median(perOp(func(s segStats) float64 { return float64(s.bytes) })))
		r.res.set(mHeapPerSession, median(heapKB))
		r.res.set(mGoroutinesPerSession, median(goroutines))
		r.res.set(mSetupS, fastest(setupS, false))
		return r.res, nil
	}

	// The instance is closed before the probes run so that its goroutines
	// and sockets do not perturb them.
	r.inst.close()
	r.inst = nil
	settle(idle)
	if err := r.tr.report(r, traced, latP50); err != nil {
		return r.res, err
	}
	return r.res, nil
}
