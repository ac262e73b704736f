package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"

	"clam/internal/bundle"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/rpc"
	"clam/internal/ruc"
	"clam/internal/task"
	"clam/internal/upcall"
	"clam/internal/wire"
	"clam/internal/xdr"
)

// Layer probes: each layer's public functions timed standalone, with the
// argument shapes the workloads use (an int64, a 16 KiB body). They say
// what a layer costs when nothing else is in the way; the workloads say
// what that cost is worth end to end.

// A real run gives every probe probeIters iterations, timed in batches.
const (
	probeIters = 200000
	probeBatch = 500
)

// prober times closures over a fixed number of iterations.
type prober struct{ iters int }

// run times fn over p.iters iterations in batches of probeBatch and returns
// the median batch's time per iteration and the allocations per iteration
// over the whole probe.
func (p prober) run(fn func()) (p50ns, allocs float64) {
	for i := 0; i < probeBatch; i++ {
		fn()
	}
	batches := max(p.iters/probeBatch, 1)
	per := make([]float64, 0, batches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := 0; b < batches; b++ {
		t0 := nowNs()
		for i := 0; i < probeBatch; i++ {
			fn()
		}
		per = append(per, float64(nowNs()-t0)/probeBatch)
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(batches*probeBatch)
}

// memStream is an in-memory wire.Stream: what is written can be read back.
// It lets the wire probes time framing alone, on one goroutine, with no
// pipe hand-off in the number.
type memStream struct {
	buf  []byte
	r, w int
}

func (m *memStream) Write(p []byte) (int, error) {
	if m.r == m.w {
		m.r, m.w = 0, 0
	}
	if m.w+len(p) > len(m.buf) {
		return 0, io.ErrShortWrite
	}
	m.w += copy(m.buf[m.w:], p)
	return len(p), nil
}

func (m *memStream) Read(p []byte) (int, error) {
	if m.r == m.w {
		return 0, io.EOF
	}
	n := copy(p, m.buf[m.r:m.w])
	m.r += n
	return n, nil
}

func (m *memStream) Close() error         { return nil }
func (m *memStream) LocalAddr() net.Addr  { return memAddr{} }
func (m *memStream) RemoteAddr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// loopCaller is the ruc.Caller of the proxy probe: the upcall goes nowhere.
type loopCaller struct{ rets []reflect.Value }

func (l *loopCaller) Upcall(uint64, reflect.Type, []reflect.Value) ([]reflect.Value, error) {
	return l.rets, nil
}

// probeErr carries the first failure out of a probe closure; a probe that
// errors measures nothing.
type probeErr struct{ err error }

func (p *probeErr) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// callShape is one call's codec path: the stub and arguments that encode
// the call, the stub and results that encode the reply, and where the
// caller decodes the result.
type callShape struct {
	call, reply                            *rpc.MethodStub
	args, replyArgs, rets                  []reflect.Value
	target                                 reflect.Value
	encCall, decArgs, encReply, decResults metricDef
}

func layerProbes(res *result, iters int) error {
	probe := prober{iters}.run
	var pe probeErr
	var ns, allocs float64
	body := make([]byte, payloadBytes)
	for i := range body {
		body[i] = byte(i * 131)
	}

	// xdr
	var xbuf xdr.Buffer
	var xrd xdr.Reader
	var xs xdr.Stream
	v := int64(42)
	ns, _ = probe(func() {
		xbuf.Reset()
		xs.ResetEncode(&xbuf)
		pe.note(xs.Int64(&v))
	})
	res.set(mXdrInt64, ns)
	ns, _ = probe(func() {
		xbuf.Reset()
		xs.ResetEncode(&xbuf)
		pe.note(xs.Bytes(&body))
	})
	res.set(mXdrBytesEnc, ns)
	encoded := append([]byte(nil), xbuf.Bytes()...)
	out := make([]byte, 0, payloadBytes)
	ns, _ = probe(func() {
		xrd.Reset(encoded)
		xs.ResetDecode(&xrd)
		pe.note(xs.Bytes(&out))
	})
	res.set(mXdrBytesDec, ns)

	// bundle
	reg := bundle.NewRegistry()
	int64T := reflect.TypeOf(int64(0))
	ns, _ = probe(func() {
		_, err := reg.Compile(int64T)
		pe.note(err)
	})
	res.set(mBundleCompile, ns)

	// rpc: the codec steps of one call. The small shape is what the small
	// workloads exercise — Counter.Add's call (one int64 in) and
	// Pinger.Ping's reply (one int64 out); the 16 KiB shape is Blob.Echo.
	env := &handlerEnv{st: &stamps{}}
	ctx := &bundle.Ctx{}
	method := func(obj any, name string) *rpc.MethodStub {
		cs, err := rpc.CompileClass(reg, reflect.TypeOf(obj), nil)
		if err != nil {
			pe.note(err)
			return nil
		}
		m, err := cs.Method(name)
		pe.note(err)
		return m
	}
	add, ping, echo := method(&Counter{}, "Add"), method(&Pinger{}, "Ping"), method(&Blob{}, "Echo")
	if pe.err != nil {
		return pe.err
	}
	codec := func(sh callShape) (allocs float64) {
		hdr := rpc.CallHeader{Seq: 7, Obj: handle.Handle{ID: 3, Tag: 0xfeed}, Method: sh.call.Name}
		sc := rpc.GetScratch()
		defer sc.Release()
		step := func(d metricDef, fn func()) {
			ns, a := probe(fn)
			res.set(d, ns)
			allocs += a
		}
		step(sh.encCall, func() {
			s := sc.Encoder()
			pe.note(hdr.Bundle(s))
			pe.note(sh.call.EncodeArgs(ctx, s, sh.args))
		})
		call := append([]byte(nil), sc.Bytes()...)
		step(sh.decArgs, func() {
			s := sc.Decoder(call)
			var h rpc.CallHeader
			pe.note(h.Bundle(s))
			_, err := sh.call.DecodeArgs(ctx, s)
			pe.note(err)
		})
		step(sh.encReply, func() {
			s := sc.Encoder()
			pe.note((&rpc.ReplyHeader{}).Bundle(s))
			pe.note(sh.reply.EncodeReplyPayload(ctx, s, sh.replyArgs, sh.rets))
		})
		reply := append([]byte(nil), sc.Bytes()...)
		step(sh.decResults, func() { // what Client.decodeReply does with a reply body
			s := sc.Decoder(reply)
			var rh rpc.ReplyHeader
			pe.note(rh.Bundle(s))
			var outc, retc int
			pe.note(s.Len(&outc))
			pe.note(s.Len(&retc))
			pe.note(rpc.DecodeValue(reg, ctx, s, sh.target))
		})
		return allocs
	}
	var got int64
	addArgs := []reflect.Value{reflect.ValueOf(int64(5))}
	pathAllocs := codec(callShape{
		call: add, args: addArgs,
		reply: ping, rets: []reflect.Value{reflect.ValueOf(int64(9))},
		target:  reflect.ValueOf(&got).Elem(),
		encCall: mRPCEncCallSmall, decArgs: mRPCDecArgsSmall, encReply: mRPCEncRepSmall, decResults: mRPCDecResSmall,
	})
	recv := reflect.ValueOf(&Counter{env: env})
	ns, allocs = probe(func() {
		_, err := add.Invoke(context.Background(), recv, addArgs)
		pe.note(err)
	})
	res.set(mRPCInvoke, ns)
	res.set(mRPCPathAllocs, pathAllocs+allocs)
	bodyV := []reflect.Value{reflect.ValueOf(body)}
	codec(callShape{
		call: echo, args: bodyV,
		reply: echo, replyArgs: bodyV, rets: bodyV,
		target:  reflect.ValueOf(&out).Elem(),
		encCall: mRPCEncCall16k, decArgs: mRPCDecArgs16k, encReply: mRPCEncRep16k, decResults: mRPCDecRes16k,
	})

	// wire: framing alone, over an in-memory stream.
	frame := func(body []byte, write, recv metricDef) float64 {
		const burst = 64
		ms := &memStream{buf: make([]byte, burst*(len(body)+64))}
		conn := wire.NewConn(ms)
		var wns, rns []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bursts := max(iters/burst, 1)
		for b := 0; b < bursts; b++ {
			t0 := nowNs()
			for i := 0; i < burst; i++ {
				pe.note(conn.SendFrame(wire.MsgCall, uint64(i), body))
			}
			t1 := nowNs()
			for i := 0; i < burst; i++ {
				m, err := conn.Recv()
				pe.note(err)
				m.Release()
			}
			t2 := nowNs()
			wns = append(wns, float64(t1-t0)/burst)
			rns = append(rns, float64(t2-t1)/burst)
		}
		runtime.ReadMemStats(&m1)
		res.set(write, median(wns))
		res.set(recv, median(rns))
		return float64(m1.Mallocs-m0.Mallocs) / float64(bursts*burst)
	}
	res.set(mWireRTAllocs, frame(make([]byte, 48), mWireWriteSmall, mWireRecvSmall))
	frame(body, mWireWrite16k, mWireRecv16k)

	// handle
	tbl := handle.NewTable()
	obj := &Pinger{}
	h, err := tbl.Put(obj, 1, 1)
	pe.note(err)
	ns, _ = probe(func() {
		_, err := tbl.Get(h)
		pe.note(err)
	})
	res.set(mHandleGet, ns)
	other := &Pinger{}
	ns, _ = probe(func() {
		h2, err := tbl.Put(other, 1, 1)
		pe.note(err)
		pe.note(tbl.Revoke(h2))
	})
	res.set(mHandlePutRevoke, ns)

	// ruc
	ft := reflect.TypeOf((func(int64) int64)(nil))
	_, proxyV, err := ruc.NewTable(nil).Bind(1, ft, &loopCaller{rets: []reflect.Value{reflect.ValueOf(int64(2))}})
	if err != nil {
		return err
	}
	proxy := proxyV.Interface().(func(int64) int64)
	ns, _ = probe(func() { proxy(1) })
	res.set(mRucProxyCall, ns)
	sh := ruc.NewSharded(0)
	for i := 0; i < fanoutSubs; i++ {
		sh.Add(&ruc.Sub{Key: uint64(i + 1), Topic: "ev", ProcID: uint64(i + 1), FuncType: ft})
	}
	ns, _ = probe(func() { sh.Snapshot("ev") })
	res.set(mRucSnapshot16, ns)

	// upcall
	ureg := upcall.NewRegistry()
	_, err = ureg.Register("ev", func(int64) {})
	pe.note(err)
	evArgs := []any{int64(7)}
	ns, _ = probe(func() {
		_, err := ureg.Post("ev", evArgs...)
		pe.note(err)
	})
	res.set(mUpcallPost, ns)
	evT := reflect.TypeOf((func(int64))(nil))
	ns, _ = probe(func() {
		_, err := upcall.ConvertArgs(evT, evArgs)
		pe.note(err)
	})
	res.set(mUpcallConvert, ns)

	// task
	sched := task.New()
	nop := func(*task.Task) {}
	ns, _ = probe(func() {
		pe.note(sched.Spawn(nop))
		sched.Wait()
	})
	res.set(mTaskSpawnReuse, ns)
	var ev task.Event
	ack := make(chan struct{})
	stop := false
	pe.note(sched.Spawn(func(t *task.Task) {
		for {
			t.Block(&ev)
			if stop {
				return
			}
			ack <- struct{}{}
		}
	}))
	ns, _ = probe(func() {
		ev.Signal()
		<-ack
	})
	res.set(mTaskBlockSignal, ns)
	stop = true
	ev.Signal()
	pe.note(sched.Close())

	// dynload
	lib, err := benchLibrary(env)
	if err != nil {
		return err
	}
	ld := dynload.NewLoader(lib)
	ns, _ = probe(func() {
		_, err := ld.Load("pinger", 0)
		pe.note(err)
	})
	res.set(mDynloadCached, ns)

	if pe.err != nil {
		return fmt.Errorf("layer probe: %w", pe.err)
	}
	return nil
}
