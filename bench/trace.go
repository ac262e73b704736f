package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"clam/internal/core"
	"clam/internal/wire"
)

// The traced run. Every span is recorded by this package, around calls
// into CLAM's public functions and inside the benchmark's own handlers;
// nothing inside internal/ is instrumented. Spans stay in memory and are
// written to the output directory when the run ends.

// span is one interval of one latency sample. Spans of one sample share
// Sample; Parent is the ID of the span that caused this one (0 for the
// root).
type span struct {
	Sample int    `json:"sample"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover.
	Self int64 `json:"self_ns"`
}

// selfTime is s's duration minus the part of [s.Start, s.End] that the
// union of its children covers. Children may overlap each other and may
// stick out of the parent.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, upTo int64
	upTo = s.Start
	for _, v := range ivs {
		if v.b <= upTo {
			continue
		}
		covered += v.b - max(v.a, upTo)
		upTo = v.b
	}
	return s.End - s.Start - covered
}

// rawSample is the stamps of one traced latency sample.
type rawSample struct{ start, issueEnd, first, last, end int64 }

// spans turns a sample's stamps into its span tree: driver.op at the root;
// under it the issuing phase and the wait after it (burst workloads only)
// and the handler interval stamped by the benchmark's own handler.
func (s rawSample) spans(sample int) []span {
	root := span{Sample: sample, ID: 1, Name: "driver.op", Start: s.start, End: s.end}
	var kids []span
	if s.issueEnd != 0 {
		kids = append(kids,
			span{Sample: sample, ID: 2, Parent: 1, Name: "core.issue", Start: s.start, End: s.issueEnd},
			span{Sample: sample, ID: 3, Parent: 1, Name: "core.await", Start: s.issueEnd, End: s.end})
	}
	if s.first != 0 {
		h := span{Sample: sample, ID: 4, Parent: 1, Name: "bench.handler", Start: s.first, End: max(s.first, s.last)}
		kids = append(kids, h)
	}
	root.Self = selfTime(root, kids)
	for i := range kids {
		kids[i].Self = kids[i].End - kids[i].Start
	}
	return append([]span{root}, kids...)
}

// rawPerSegment bounds the spans kept per segment: enough to read a
// timeline from, small enough not to change the live heap (and with it
// the GC pacing) of the process being measured.
const rawPerSegment = 128

type tracer struct {
	st  *stamps
	cur opTrace

	// Leg histograms over every traced sample of the run.
	reqLeg, handler, replyLeg, await, all *recorder

	raw  []rawSample
	kept int // samples kept from the current segment
}

func newTracer(st *stamps, segments int) *tracer {
	t := &tracer{
		st:     st,
		reqLeg: newRecorder(), handler: newRecorder(), replyLeg: newRecorder(),
		await: newRecorder(), all: newRecorder(),
		raw: make([]rawSample, 0, segments*rawPerSegment),
	}
	t.cur.issue = newRecorder()
	return t
}

func (t *tracer) segmentStart() *opTrace {
	t.kept = 0
	return &t.cur
}

// record files one traced sample: [t0, end] is the latency sample, tr holds
// what op stamped, and the handler stamps are taken from the shared slot.
func (t *tracer) record(t0, end int64, tr *opTrace) {
	first, last := t.st.take()
	resumed := end
	if tr.wake != 0 {
		resumed = tr.wake
	}
	t.all.add(end - t0)
	if first != 0 {
		last = max(first, last)
		t.reqLeg.add(first - t0)
		t.handler.add(last - first)
		t.replyLeg.add(resumed - last)
	}
	if tr.issueEnd != 0 {
		t.await.add(end - tr.issueEnd)
	}
	if t.kept < rawPerSegment {
		t.kept++
		t.raw = append(t.raw, rawSample{start: t0, issueEnd: tr.issueEnd, first: first, last: last, end: end})
	}
	tr.issueEnd, tr.wake = 0, 0
}

// counterSample is every counter the traced phase takes deltas of.
type counterSample struct {
	frames                uint64 // frames sent+received by every dialed session
	vecFlushes, vecFrames uint64
	srv                   core.MetricsSnapshot // the server the generator talks to
	numGC                 uint32
	gcPauseNs             uint64
}

func sampleCounters(in *instance) counterSample {
	var c counterSample
	clients := in.clients
	if in.upstream != nil {
		clients = append(clients[:len(clients):len(clients)], in.upstream)
	}
	for _, cl := range clients {
		s, r := cl.SessionStats()
		c.frames += s + r
	}
	c.vecFlushes, c.vecFrames = wire.VecStats()
	c.srv = in.servers[0].Metrics()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.numGC, c.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	return c
}

// tracedPhase spans the traced segments of one run.
type tracedPhase struct {
	base          segStats // the untraced segment measured just before
	before, after counterSample

	stop          chan struct{}
	sampler       sync.WaitGroup
	queueDepthMax uint64
}

// begin switches handler stamping on, snapshots the counters and starts the
// 10 ms sampler of the executor's queue depth.
func (t *tracer) begin(r *runner, base segStats) *tracedPhase {
	p := &tracedPhase{base: base, before: sampleCounters(r.inst), stop: make(chan struct{})}
	srv := r.inst.servers[0]
	p.sampler.Add(1)
	go func() {
		defer p.sampler.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.queueDepthMax = max(p.queueDepthMax, srv.Metrics().Dispatch.QueueDepth)
			}
		}
	}()
	t.st.on.Store(true)
	return p
}

func (t *tracer) end(r *runner, p *tracedPhase) {
	t.st.on.Store(false)
	close(p.stop)
	p.sampler.Wait()
	p.after = sampleCounters(r.inst)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report fills in every per-layer metric: the workload's own legs and
// counters, then the side experiments and layer probes that are the same
// on every workload, and writes the spans out.
func (t *tracer) report(r *runner, p *tracedPhase, tracedP50us float64) error {
	res, w := r.res, r.w
	ops := float64(res.Samples) * float64(w.opsPerSample)

	res.set(mRequestLeg, mRequestLeg.fromNs(t.reqLeg.percentile(0.5)))
	res.set(mHandler, mHandler.fromNs(t.handler.percentile(0.5)))
	res.set(mReplyLeg, mReplyLeg.fromNs(t.replyLeg.percentile(0.5)))
	for _, d := range []metricDef{mAsyncEnq, mAsyncSync, mFanPublish, mFanDrainLag} {
		res.set(d, 0) // the layer does no work on a workload that is not on its path
	}
	if w.issueMetric != nil {
		res.set(*w.issueMetric, w.issueMetric.fromNs(t.cur.issue.percentile(0.5)))
		res.set(*w.awaitMetric, w.awaitMetric.fromNs(t.await.percentile(0.5)))
	}

	b, a := p.before, p.after
	res.set(mFramesPerOp, ratio(float64(a.frames-b.frames), ops))
	res.set(mFlushesPerOp, ratio(float64(a.vecFlushes-b.vecFlushes), ops))
	res.set(mFramesPerFlush, ratio(float64(a.vecFrames-b.vecFrames), float64(a.vecFlushes-b.vecFlushes)))
	res.set(mParallelismHWM, float64(a.srv.Dispatch.Parallelism))
	res.set(mQueueDepthMax, float64(p.queueDepthMax))
	res.set(mStallsPerKop, 1e3*ratio(float64(a.srv.Dispatch.WorkerStalls-b.srv.Dispatch.WorkerStalls), ops))
	res.set(mBatchesPerKop, 1e3*ratio(float64(a.srv.Batches-b.srv.Batches), ops))
	fa, fb := a.srv.Fanout, b.srv.Fanout
	res.set(mFanDelivered, ratio(float64(fa.EventsDelivered-fb.EventsDelivered), float64(fa.EventsPublished-fb.EventsPublished)))
	res.set(mFanDrops, float64(fa.QueueDropsOldest+fa.QueueDropsNewest+fa.QueueDropsClosed+fa.DeliveryFailures)-
		float64(fb.QueueDropsOldest+fb.QueueDropsNewest+fb.QueueDropsClosed+fb.DeliveryFailures))
	res.set(mFanCoalesced, float64(fa.EventsCoalesced-fb.EventsCoalesced))
	res.set(mRelayedPerOp, ratio(float64(a.srv.Forwarding.CallsRelayedDown-b.srv.Forwarding.CallsRelayedDown), ops))
	res.set(mProxyHandles, float64(a.srv.Forwarding.ProxyHandlesLive))

	res.set(mDriverP99, mDriverP99.fromNs(t.all.percentile(0.99)))
	res.set(mDriverP999, mDriverP999.fromNs(t.all.percentile(0.999)))
	res.set(mDriverMax, mDriverMax.fromNs(float64(t.all.max)))
	res.set(mDriverSamples, float64(t.all.n))
	res.set(mDriverGCCycles, float64(a.numGC-b.numGC))
	res.set(mDriverGCPause, mDriverGCPause.fromNs(float64(a.gcPauseNs-b.gcPauseNs)))
	res.set(mDriverUntraced, mDriverUntraced.fromNs(p.base.p50))
	res.set(mDriverTracedP50, tracedP50us)
	res.set(mDriverOverhead, ratio(tracedP50us, mDriverUntraced.fromNs(p.base.p50)))

	if err := sideExperiments(res, filepath.Join(r.cfg.tmpDir, "side"), r.cfg.seed, r.cfg.sideCalls); err != nil {
		return err
	}
	if err := layerProbes(res, r.cfg.probeIters); err != nil {
		return err
	}
	return t.write(filepath.Join(r.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, r.cfg.seed)))
}

// write dumps the kept samples' spans, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.raw {
		for _, sp := range s.spans(i + 1) {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
