package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestRecorderPercentilesMatchSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	rec := newRecorder()
	vals := make([]int64, 200000)
	for i := range vals {
		// Log-uniform over 100 ns .. 100 ms, the range latencies live in.
		vals[i] = int64(100 * math.Pow(10, 6*rng.Float64()))
		rec.add(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := float64(vals[int(math.Ceil(p*float64(len(vals))))-1])
		got := rec.percentile(p)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g = %.0f, sorted slice says %.0f (more than 1%% apart)", p*100, got, want)
		}
	}
	if got := rec.beyond(0.99); got != 2000 {
		t.Errorf("beyond(0.99) = %d of 200000 samples, want 2000", got)
	}
	if rec.max != vals[len(vals)-1] {
		t.Errorf("max = %d, want %d", rec.max, vals[len(vals)-1])
	}
	rec.reset()
	if rec.n != 0 || rec.percentile(0.5) != 0 {
		t.Errorf("reset left %d samples", rec.n)
	}
}

func TestRecorderSmallValuesAreExact(t *testing.T) {
	rec := newRecorder()
	for v := int64(0); v < 100; v++ {
		rec.add(v)
	}
	if got := rec.percentile(0.5); math.Abs(got-49.5) > 0.5 {
		t.Errorf("p50 of 0..99 = %v", got)
	}
	for _, v := range []int64{127, 128, 129, 255, 256, 1 << 20, 1<<20 + 12345, 1 << 40} {
		lo, width := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d filed under bucket [%v, %v)", v, lo, lo+width)
		}
		if v >= 128 && width/lo > 1.0/128 {
			t.Errorf("bucket of %d is %v wide, more than 1/128 of its floor", v, width)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five segments = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// The fast side of a latency is the low one, of a rate the high one;
	// disturbed segments do not move it.
	if got := fastest([]float64{13, 8.1, 13, 8, 13, 13, 13, 13, 13, 13}, false); got != 8 {
		t.Errorf("fastest of a latency with eight slow segments in ten = %v, want 8", got)
	}
	if got := fastest([]float64{60, 100, 60, 99, 60, 60, 60, 60, 60, 60}, true); got != 100 {
		t.Errorf("fastest of a rate with eight slow segments in ten = %v, want 100", got)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 160, End: 170}, {Start: 110, End: 120}}, 80},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested child adds nothing", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children are clipped to the parent", []span{{Start: 50, End: 110}, {Start: 190, End: 400}}, 80},
		{"child outside the parent", []span{{Start: 300, End: 400}}, 100},
		{"children tile the parent", []span{{Start: 100, End: 160}, {Start: 160, End: 200}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}

	// A burst sample's tree: issue and await tile the op, the handler
	// interval overlaps both, so the op has no self time.
	s := rawSample{start: 1000, issueEnd: 1400, first: 1100, last: 1900, end: 2000}
	sp := s.spans(7)
	if len(sp) != 4 || sp[0].Name != "driver.op" || sp[0].Self != 0 {
		t.Fatalf("burst spans = %+v", sp)
	}
	for _, c := range sp[1:] {
		if c.Parent != sp[0].ID || c.Sample != 7 {
			t.Errorf("span %+v is not a child of the root of sample 7", c)
		}
	}
	// A single call's tree: the op's self time is the two legs.
	sp = rawSample{start: 1000, first: 1400, last: 1450, end: 2000}.spans(1)
	if len(sp) != 2 || sp[0].Self != 950 || sp[1].Self != 50 {
		t.Fatalf("call spans = %+v", sp)
	}
}

func TestVerdicts(t *testing.T) {
	steady := func(center float64) []float64 {
		return []float64{center * 0.998, center * 0.999, center, center * 1.001, center * 1.002}
	}
	noisy := []float64{80, 90, 100, 110, 120}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same latency", steady(100), steady(100), "lower", 0.05, "ok"},
		{"latency up inside the bound", steady(100), steady(104), "lower", 0.05, "ok"},
		{"latency up past the bound", steady(100), steady(106), "lower", 0.05, "regression"},
		{"latency down is never a regression", steady(100), steady(50), "lower", 0.05, "ok"},
		{"throughput down past the bound", steady(1000), steady(940), "higher", 0.05, "regression"},
		{"throughput up is never a regression", steady(1000), steady(2000), "higher", 0.05, "ok"},
		{"spread wider than the bound cannot tell", steady(100), noisy, "lower", 0.05, "unresolved"},
		{"a noisy reference cannot tell either", noisy, steady(130), "lower", 0.05, "unresolved"},
	}
	for _, c := range cases {
		got, worse, widest := verdict(c.a, c.b, c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %q (worse %+.3f, spread %.3f), want %q", c.name, got, worse, widest, c.want)
		}
	}
}

func TestAgreeReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lat float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			res := result{Workload: "call_unix", Metrics: map[string]metric{
				"lat_p50_us": {Value: lat + float64(i)/100, Unit: "us"}}}
			if err := appendRecord(path, record{result: res}); err != nil {
				t.Fatal(err)
			}
		}
		// A traced record in the same file is not an end-to-end run.
		if err := appendRecord(path, record{result: result{Workload: "call_unix", Trace: true,
			Metrics: map[string]metric{"lat_p50_us": {Value: 999}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set, err := readSet(write("a.jsonl", 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := set["call_unix"]["lat_p50_us"]; len(got) != 5 || median(got) != 8.02 {
		t.Errorf("read back %v", got)
	}
}

// The grammars BENCHMARK.json's reader enforces.
var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest pins BENCHMARK.json to what the program emits and to the
// grammar its reader enforces.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameGrammar.MatchString(n) {
			t.Errorf("%s name %q is outside the name grammar", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	// The manifest gates a subset of the program's workloads, in its order.
	if len(man.Workloads) < 2 || len(man.Workloads) > len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	next := 0
	for _, w := range man.Workloads {
		name("workload", w.Name)
		for next < len(workloads) && workloads[next].name != w.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("workload %q of the manifest is not in the program, or out of its order", w.Name)
		}
		if w.Why != workloads[next].why {
			t.Errorf("workload %s: the manifest's reason differs from the program's", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: reason is %d characters", w.Name, len(w.Why))
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, the program emits %d", len(man.EndToEnd), len(endToEnd))
	}
	var setupBound, widest float64
	for i, m := range man.EndToEnd {
		name("metric", m.Name)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in the manifest, %s [%s] in the program",
				i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if !unitGrammar.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = max(widest, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and better lower")
			}
		}
	}
	if setupBound == 0 || setupBound < widest {
		t.Errorf("setup_s has bound %v; it must have the largest (%v)", setupBound, widest)
	}
	if len(man.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest lists %d per-layer metrics, the program emits %d (limit 128)", len(man.PerLayer), len(perLayer))
	}
	for i, m := range man.PerLayer {
		name("metric", m.Name)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s [%s] in the manifest, %s [%s] in the program",
				i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if !unitGrammar.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// smokeConfig is a 5 × 100 ms run over two set-ups, each with a hundredth
// of the warm-up.
func smokeConfig(t *testing.T) config {
	return config{
		seed: 7, segments: 5, segLen: 100 * time.Millisecond, setups: 2, warmupDiv: 100,
		outDir: t.TempDir(), tmpDir: t.TempDir(), probeIters: 2000, sideCalls: 200,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (emitted %v): every end-to-end metric must be present and above zero", d.Name, m, ok)
				}
			}
		})
	}
}

// TestBrokenHandlerFailsTheRun boots each workload with handlers that
// answer wrongly now and then; the verify step must notice.
func TestBrokenHandlerFailsTheRun(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			cfg.broken = true
			res, err := runWorkload(w, cfg)
			if err == nil && (res.Correct || res.Failed == 0) {
				t.Fatalf("a broken handler went unnoticed: %d of %d failed", res.Failed, res.Attempted)
			}
		})
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	for _, name := range []string{"async_batch", "relay_hop"} {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t)
			cfg.trace, cfg.setups = true, 1 // as main does: the traced run sets up once
			res, err := runWorkload(findWorkload(name), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%d failed: %v", res.Failed, res.Problems)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("emitted %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s missing or in the wrong unit: %+v", d.Name, m)
				}
			}
			for _, d := range []metricDef{mRequestLeg, mReplyLeg, mFramesPerOp, mDriverOverhead, mCallPipeP50, mRPCInvoke} {
				if !(res.Metrics[d.Name].Value > 0) {
					t.Errorf("%s = %v, want above zero", d.Name, res.Metrics[d.Name].Value)
				}
			}
			switch name {
			case "async_batch":
				if v := res.Metrics[mAsyncEnq.Name].Value; !(v > 0) {
					t.Errorf("async enqueue = %v on async_batch", v)
				}
				if v := res.Metrics[mRelayedPerOp.Name].Value; v != 0 {
					t.Errorf("calls relayed per op = %v on a workload with no hop", v)
				}
			case "relay_hop":
				if v := res.Metrics[mRelayedPerOp.Name].Value; v != 1 {
					t.Errorf("calls relayed per op = %v on relay_hop, want 1", v)
				}
				if v := res.Metrics[mAsyncEnq.Name].Value; v != 0 {
					t.Errorf("async enqueue = %v on a workload that issues no batch", v)
				}
			}
			spans, err := filepath.Glob(filepath.Join(cfg.outDir, "trace-*.jsonl"))
			if err != nil || len(spans) != 1 {
				t.Fatalf("trace files written: %v %v", spans, err)
			}
		})
	}
}
