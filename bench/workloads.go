package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync/atomic"
	"time"

	"clam/internal/core"
	"clam/internal/upcall"
)

// A workload is one closed-loop traffic shape: one generator goroutine
// issues a latency sample, waits for it to complete, verifies it, and only
// then issues the next. An op is the unit of useful work inside a sample
// (one call executed, one event delivered to one subscriber).
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// warmup is the fixed number of samples run during set-up. It is a
	// constant, never derived from time, and sized so that set-up takes
	// about a second on the reference box: the PR 11 lesson is that no
	// timed quantity under a second may be gated.
	warmup int
	// opsPerSample is how many ops one latency sample completes.
	opsPerSample int
	boot         func(r *rig) (*instance, error)
	// issueMetric and awaitMetric name, for a workload whose sample issues
	// several calls before waiting, the traced duration of one issuing
	// call and of the wait that follows the last of them.
	issueMetric, awaitMetric *metricDef
}

// rig is what a workload is booted with.
type rig struct {
	dir  string // holds the run's sockets; removed at exit
	seed uint64
	env  *handlerEnv
	// serverOpts are added to every server booted (side experiments only).
	serverOpts []core.ServerOption
}

func (r *rig) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(r.seed, stream)) }

// opTrace is filled by op only during a traced run, for samples that issue
// several API calls before waiting.
type opTrace struct {
	// issueEnd is when the last issuing call (Async, Publish) returned.
	issueEnd int64
	// issue records the duration of each issuing call.
	issue *recorder
	// wake is when the generator resumed, where that is later than the
	// stamp that ends the sample (fanout_16).
	wake int64
}

// instance is a booted workload.
type instance struct {
	// op performs one latency sample and returns the stamp that ends it.
	// tr is nil on an untraced run.
	op func(tr *opTrace) (end int64, err error)
	// check verifies the sample that op just completed. It runs after the
	// sample's end stamp, so verification is not part of the latency.
	check func() error
	// finish verifies what only the whole run can show (totals, drops).
	finish func() error

	servers  []*core.Server
	clients  []*core.Client
	sessions int
	// upstream is a dialed session a server owns (and closes): counted in
	// sessions and in the frame counters, not closed by the instance.
	upstream *core.Client
}

func (in *instance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	for _, s := range in.servers {
		s.Close()
	}
}

var (
	quietServer = core.WithServerLog(func(string, ...any) {})
	quietClient = core.WithClientLog(func(string, ...any) {})
)

// bootServer starts a server holding one named instance of each class in
// names, listening on a unix socket under the rig's directory.
func bootServer(r *rig, sock string, names ...string) (*core.Server, string, map[string]any, error) {
	lib, err := benchLibrary(r.env)
	if err != nil {
		return nil, "", nil, err
	}
	srv := core.NewServer(lib, append([]core.ServerOption{quietServer}, r.serverOpts...)...)
	objs := make(map[string]any, len(names))
	for _, n := range names {
		obj, _, err := srv.CreateInstance(n, 0, nil)
		if err != nil {
			srv.Close()
			return nil, "", nil, err
		}
		srv.SetNamed(n, obj)
		objs[n] = obj
	}
	addr := ""
	if sock != "" {
		addr = filepath.Join(r.dir, sock)
		if _, err := srv.Listen("unix", addr); err != nil {
			srv.Close()
			return nil, "", nil, err
		}
	}
	return srv, addr, objs, nil
}

// dialNamed dials addr and resolves one named object.
func dialNamed(addr, name string) (*core.Client, *core.Remote, error) {
	c, err := core.Dial("unix", addr, quietClient)
	if err != nil {
		return nil, nil, err
	}
	rem, err := c.NamedObject(name)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, rem, nil
}

// pingInstance is the shared body of call_unix and relay_hop: sync Ping,
// verified against the count of calls issued.
func pingInstance(rem *core.Remote, target *Pinger) *instance {
	var out, issued int64
	rets := []any{&out}
	return &instance{
		op: func(*opTrace) (int64, error) {
			err := rem.CallInto("Ping", rets)
			return nowNs(), err
		},
		check: func() error {
			issued++
			if out != issued {
				return fmt.Errorf("Ping returned %d after %d calls", out, issued)
			}
			return nil
		},
		finish: func() error {
			if n := target.calls.Load(); n != issued {
				return fmt.Errorf("target executed %d calls, %d issued", n, issued)
			}
			return nil
		},
	}
}

func bootCallUnix(r *rig) (*instance, error) {
	srv, addr, objs, err := bootServer(r, "s.sock", "pinger")
	if err != nil {
		return nil, err
	}
	c, rem, err := dialNamed(addr, "pinger")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in := pingInstance(rem, objs["pinger"].(*Pinger))
	in.servers, in.clients, in.sessions = []*core.Server{srv}, []*core.Client{c}, 1
	return in, nil
}

func bootRelayHop(r *rig) (*instance, error) {
	bottom, _, objs, err := bootServer(r, "", "pinger")
	if err != nil {
		return nil, err
	}
	mid, addr, _, err := bootServer(r, "mid.sock")
	if err != nil {
		bottom.Close()
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		mid.Close() // closes its upstream client too
		bottom.Close()
		return nil, err
	}
	up, err := core.SelfDialUpstream(mid, bottom, quietClient)
	if err != nil {
		return fail(err)
	}
	if err := mid.ImportNamed(up, "pinger"); err != nil {
		return fail(err)
	}
	c, rem, err := dialNamed(addr, "pinger")
	if err != nil {
		return fail(err)
	}
	in := pingInstance(rem, objs["pinger"].(*Pinger))
	in.servers, in.clients, in.sessions = []*core.Server{mid, bottom}, []*core.Client{c}, 2
	in.upstream = up
	return in, nil
}

func bootUpcallUnix(r *rig) (*instance, error) {
	srv, addr, objs, err := bootServer(r, "s.sock", "echo")
	if err != nil {
		return nil, err
	}
	c, rem, err := dialNamed(addr, "echo")
	if err != nil {
		srv.Close()
		return nil, err
	}
	env := r.env
	var handled atomic.Int64 // read by the generator at the end of the run
	handler := func(x int64) int64 {
		env.st.enter()
		n := handled.Add(1)
		y := x + 1
		if env.broken && n%7 == 0 {
			y++
		}
		env.st.exit()
		return y
	}
	if err := rem.Call("Register", handler); err != nil {
		c.Close()
		srv.Close()
		return nil, err
	}
	proxy := objs["echo"].(*Echo).Proc()
	if proxy == nil {
		c.Close()
		srv.Close()
		return nil, fmt.Errorf("registration did not reach the server")
	}
	xs := seededInts(r.rng(1), 4096)
	var x, got, issued int64
	return &instance{
		op: func(*opTrace) (int64, error) {
			x = xs[issued%int64(len(xs))]
			issued++
			got = proxy(x)
			return nowNs(), nil
		},
		check: func() error {
			if got != x+1 {
				return fmt.Errorf("upcall(%d) returned %d", x, got)
			}
			return nil
		},
		finish: func() error {
			if n := handled.Load(); n != issued {
				return fmt.Errorf("handler ran %d times, %d upcalls issued", n, issued)
			}
			return nil
		},
		servers: []*core.Server{srv}, clients: []*core.Client{c}, sessions: 1,
	}, nil
}

const asyncBurst = 64

func bootAsyncBatch(r *rig) (*instance, error) {
	srv, addr, _, err := bootServer(r, "s.sock", "counter")
	if err != nil {
		return nil, err
	}
	c, rem, err := dialNamed(addr, "counter")
	if err != nil {
		srv.Close()
		return nil, err
	}
	// Arguments are boxed once, outside the loop, so the generator adds no
	// allocation of its own to allocs_per_op.
	vals := seededInts(r.rng(2), asyncBurst*64)
	boxed := boxInts(vals)
	var next int
	var sum, sent int64
	return &instance{
		op: func(tr *opTrace) (int64, error) {
			base := next
			next = (next + asyncBurst) % len(vals)
			if tr == nil {
				for i := base; i < base+asyncBurst; i++ {
					if err := rem.Async("Add", boxed[i:i+1]...); err != nil {
						return nowNs(), err
					}
				}
			} else {
				t := nowNs()
				for i := base; i < base+asyncBurst; i++ {
					if err := rem.Async("Add", boxed[i:i+1]...); err != nil {
						return nowNs(), err
					}
					u := nowNs()
					tr.issue.add(u - t)
					t = u
				}
				tr.issueEnd = t
			}
			err := c.Sync()
			end := nowNs()
			for _, v := range vals[base : base+asyncBurst] {
				sum += v
			}
			sent += asyncBurst
			return end, err
		},
		check: func() error { return nil },
		finish: func() error {
			var total, adds int64
			if err := rem.CallInto("Total", []any{&total, &adds}); err != nil {
				return err
			}
			if total != sum || adds != sent {
				return fmt.Errorf("counter holds %d after %d adds, want %d after %d", total, adds, sum, sent)
			}
			return nil
		},
		servers: []*core.Server{srv}, clients: []*core.Client{c}, sessions: 1,
	}, nil
}

const payloadBytes = 16 << 10

func bootPayload16k(r *rig) (*instance, error) {
	srv, addr, _, err := bootServer(r, "s.sock", "blob")
	if err != nil {
		return nil, err
	}
	c, rem, err := dialNamed(addr, "blob")
	if err != nil {
		srv.Close()
		return nil, err
	}
	rng := r.rng(3)
	bodies := make([][]byte, 8)
	boxed := make([]any, len(bodies))
	for i := range bodies {
		bodies[i] = make([]byte, payloadBytes)
		for j := range bodies[i] {
			bodies[i][j] = byte(rng.Uint32())
		}
		boxed[i] = bodies[i]
	}
	out := make([]byte, 0, payloadBytes)
	rets := []any{&out}
	var issued, cur int
	return &instance{
		op: func(*opTrace) (int64, error) {
			cur = issued % len(bodies)
			issued++
			err := rem.CallInto("Echo", rets, boxed[cur:cur+1]...)
			return nowNs(), err
		},
		check: func() error {
			if !bytes.Equal(out, bodies[cur]) {
				return fmt.Errorf("echoed body %d differs from what was sent", cur)
			}
			return nil
		},
		finish:  func() error { return nil },
		servers: []*core.Server{srv}, clients: []*core.Client{c}, sessions: 1,
	}, nil
}

const (
	fanoutSubs  = 16
	fanoutBurst = 8
)

// fanSub is one passive subscriber's delivery ledger.
type fanSub struct {
	n   int64 // events received; only this subscriber's handler writes it
	bad int64 // events that arrived out of published order
}

func bootFanout16(r *rig) (*instance, error) {
	lib, err := benchLibrary(r.env)
	if err != nil {
		return nil, err
	}
	srv := core.NewServer(lib, quietServer)
	in := &instance{servers: []*core.Server{srv}, sessions: fanoutSubs}
	if err := srv.RegisterMulticast("ev", (func(int64))(nil),
		core.WithFanoutQueue(64), core.WithFanoutPolicy(upcall.Block)); err != nil {
		in.close()
		return nil, err
	}
	events := seededInts(r.rng(4), 4096)
	for i := range events { // the fan-out skips an event identical to the queued tail
		if events[i] == events[(i+len(events)-1)%len(events)] {
			events[i]++
		}
	}
	boxed := boxInts(events)

	env := r.env
	var got, target, doneAt atomic.Int64
	done := make(chan struct{}, 1) // one burst in flight, one completion signal
	subs := make([]fanSub, fanoutSubs)
	for i := range subs {
		sub := &subs[i]
		c, err := core.SelfDial(srv, quietClient)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, c)
		breakThis := env.broken && i == 3
		if _, err := c.Subscribe("ev", func(v int64) {
			now := nowNs()
			if env.st.on.Load() {
				env.st.first.CompareAndSwap(0, now)
			}
			if v != events[sub.n%int64(len(events))] || (breakThis && sub.n%7 == 0) {
				sub.bad++
			}
			sub.n++
			if got.Add(1) == target.Load() {
				doneAt.Store(now)
				done <- struct{}{}
			}
		}); err != nil {
			in.close()
			return nil, err
		}
	}

	stall := time.NewTimer(time.Hour)
	stall.Stop()
	var published int64
	before := srv.Metrics().Fanout
	in.op = func(tr *opTrace) (int64, error) {
		target.Store((published + fanoutBurst) * fanoutSubs)
		t := nowNs()
		for j := 0; j < fanoutBurst; j++ {
			k := int(published % int64(len(events)))
			published++
			n, err := srv.Publish("ev", boxed[k:k+1]...)
			if err != nil {
				return nowNs(), err
			}
			if n != fanoutSubs {
				return nowNs(), fmt.Errorf("Publish reached %d of %d subscribers", n, fanoutSubs)
			}
			if tr != nil {
				u := nowNs()
				tr.issue.add(u - t)
				t = u
			}
		}
		if tr != nil {
			tr.issueEnd = t
		}
		stall.Reset(30 * time.Second)
		select {
		case <-done:
			stall.Stop()
		case <-stall.C:
			return nowNs(), fmt.Errorf("burst stalled at %d of %d deliveries", got.Load(), target.Load())
		}
		end := doneAt.Load()
		// The last handler's entry ends the sample and, on a traced run,
		// is also the last handler stamp.
		if tr != nil {
			env.st.last.Store(end)
			tr.wake = nowNs()
		}
		return end, nil
	}
	in.check = func() error { return nil }
	in.finish = func() error {
		for i := range subs {
			if subs[i].n != published || subs[i].bad != 0 {
				return fmt.Errorf("subscriber %d received %d of %d events, %d out of order",
					i, subs[i].n, published, subs[i].bad)
			}
		}
		f := srv.Metrics().Fanout
		drops := f.QueueDropsOldest + f.QueueDropsNewest + f.QueueDropsClosed + f.DeliveryFailures -
			(before.QueueDropsOldest + before.QueueDropsNewest + before.QueueDropsClosed + before.DeliveryFailures)
		if drops != 0 || f.EventsCoalesced != before.EventsCoalesced {
			return fmt.Errorf("fan-out lost events: %d drops or failures, %d coalesced",
				drops, f.EventsCoalesced-before.EventsCoalesced)
		}
		return nil
	}
	return in, nil
}

// seededInts returns n values that fit in 32 bits, so sums stay far from
// overflow over any run length.
func seededInts(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(rng.Int32())
	}
	return vs
}

func boxInts(vs []int64) []any {
	boxed := make([]any, len(vs))
	for i, v := range vs {
		boxed[i] = v
	}
	return boxed
}

// The six workloads. Each warm-up count was sized on the reference box so
// that set-up takes at least a second. BENCHMARK.json lists the three that
// the acceptance driver runs and gates (call_unix, upcall_unix,
// async_batch); payload_16k, relay_hop and fanout_16 run on request, with
// the same metrics.
var workloads = []workload{
	{name: "call_unix", warmup: 110000, opsPerSample: 1, boot: bootCallUnix,
		why: "smallest message: per-call mechanism (flush per call, wait/wake, executor hand-off) is everything, codec nothing; Fig. 5.1 row d"},
	{name: "upcall_unix", warmup: 125000, opsPerSample: 1, boot: bootUpcallUnix,
		why: "the paper's namesake path: same wire as call_unix used in reverse (ruc proxy, upcall gate, client upcall task), so a gain for calls that costs upcalls shows"},
	{name: "async_batch", warmup: 17000, opsPerSample: asyncBurst, boot: bootAsyncBatch,
		issueMetric: &mAsyncEnq, awaitMetric: &mAsyncSync,
		why: "64 batched Adds per Sync amortise the wire: encode, stub decode/invoke and the executor's async lane dominate, the kernel does little; mirror image of call_unix"},
	{name: "payload_16k", warmup: 62000, opsPerSample: 1, boot: bootPayload16k,
		why: "16 KiB each way: byte copies, by-reference bodies, chunked Recv and writev dominate, per-call mechanism little; bypasses the small-frame path"},
	{name: "relay_hop", warmup: 45000, opsPerSample: 1, boot: bootRelayHop,
		why: "client to mid server to bottom server: forward.go and peerlink decode and re-encode every frame; a hop saving must land here and not move call_unix"},
	{name: "fanout_16", warmup: 1800, opsPerSample: fanoutSubs * fanoutBurst, boot: bootFanout16,
		issueMetric: &mFanPublish, awaitMetric: &mFanDrainLag,
		why: "8-event bursts to 16 passive subscribers over pipes: sharded snapshots, per-subscriber queues and drain goroutines do the work, the kernel none"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
