package core

import (
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"clam/internal/bundle"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/rpc"
	"clam/internal/wire"
)

// FuzzCallBatch feeds arbitrary bytes to the dispatcher as the body of a
// MsgCall frame: the batch count, each call header decoded in place, the
// method name looked up as a view into the body, and the argument decode
// into a pooled frame. The contract: nothing panics (the decoder hands out
// views by slice index, so reading past the body would be an index panic —
// "never panics" includes "never reads past the body"), and a body whose
// count word exceeds rpc.MaxBatch dispatches nothing. `make fuzzsmoke` runs
// it for a few seconds; `go test -fuzz FuzzCallBatch ./internal/core` digs
// deeper.

// fuzzTarget counts every dispatch that reaches it.
type fuzzTarget struct{ calls atomic.Int64 }

func (f *fuzzTarget) Add(x int64)                   { f.calls.Add(1) }
func (f *fuzzTarget) Note(s string, b []byte)       { f.calls.Add(1) }
func (f *fuzzTarget) Total() int64                  { return f.calls.Add(1) }
func (f *fuzzTarget) Scale(k int64, v *vec2)        { f.calls.Add(1) }
func (f *fuzzTarget) Div(a, b int64) (int64, error) { f.calls.Add(1); return a, nil }

// discardStream is a wire.Stream that swallows what the session writes
// (replies to calls the fuzzer happened to make synchronous) and has
// nothing to read.
type discardStream struct{}

func (discardStream) Write(p []byte) (int, error) { return len(p), nil }
func (discardStream) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardStream) Close() error                { return nil }
func (discardStream) LocalAddr() net.Addr         { return discardAddr{} }
func (discardStream) RemoteAddr() net.Addr        { return discardAddr{} }

type discardAddr struct{}

func (discardAddr) Network() string { return "discard" }
func (discardAddr) String() string  { return "discard" }

func FuzzCallBatch(f *testing.F) {
	lib := dynload.NewLibrary()
	lib.MustRegister(dynload.Class{
		Name: "target", Version: 1, Type: reflect.TypeOf(&fuzzTarget{}),
		New: func(any) (any, error) { return &fuzzTarget{}, nil },
	})
	srv := NewServer(lib, WithServerLog(func(string, ...any) {}))
	f.Cleanup(func() { srv.Close() })
	// A fixed tag keeps the seed corpus meaningful from run to run.
	srv.handles.SetTagMinter(func() uint64 { return 0xfeedface })
	obj, h, err := srv.CreateInstance("target", 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	target := obj.(*fuzzTarget)
	sess := newSession(srv, 1, wire.NewConn(discardStream{}))

	// A valid three-call batch (two asynchronous Adds and a synchronous
	// Total), every truncation of it, and a few hostile count words.
	valid := encodeBatch(f, h, []batchCall{
		{method: "Add", args: []any{int64(5)}},
		{method: "Add", args: []any{int64(7)}},
		{seq: 9, method: "Total"},
	})
	// The seed must reach the handlers, or the target fuzzes a dead path.
	sess.execBatch(&wire.Msg{Type: wire.MsgCall, Body: valid})
	if ran := target.calls.Load(); ran != 3 {
		f.Fatalf("the valid seed batch dispatched %d calls, want 3", ran)
	}
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	huge := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(huge, rpc.MaxBatch+1)
	f.Add(huge)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFFF)
	f.Add(huge)
	f.Add(encodeBatch(f, h, []batchCall{{method: "Note", args: []any{"name", []byte{1, 2, 3}}}, {method: "NoSuchMethod"}}))
	f.Add(encodeBatch(f, handle.Handle{ID: 99, Tag: 1}, []batchCall{{method: "Add", args: []any{int64(1)}}}))

	f.Fuzz(func(t *testing.T, body []byte) {
		before := target.calls.Load()
		// The body is cut to its length: a decoder that walked past the end
		// would leave the slice, not wander into spare capacity.
		sess.execBatch(&wire.Msg{Type: wire.MsgCall, Body: body[:len(body):len(body)]})
		if len(body) >= 4 && binary.BigEndian.Uint32(body) > rpc.MaxBatch {
			if ran := target.calls.Load() - before; ran != 0 {
				t.Fatalf("batch claiming %d calls (limit %d) dispatched %d", binary.BigEndian.Uint32(body), rpc.MaxBatch, ran)
			}
		}
	})
}

type batchCall struct {
	seq    uint64
	method string
	args   []any
}

// encodeBatch builds a MsgCall body the way a client does.
func encodeBatch(tb testing.TB, h handle.Handle, calls []batchCall) []byte {
	tb.Helper()
	sc := rpc.GetScratch()
	defer sc.Release()
	enc := sc.Encoder()
	n := len(calls)
	if err := enc.Len(&n); err != nil {
		tb.Fatal(err)
	}
	reg := bundle.NewRegistry()
	for _, c := range calls {
		hdr := rpc.CallHeader{Seq: c.seq, Obj: h, Method: c.method}
		if err := hdr.Bundle(enc); err != nil {
			tb.Fatal(err)
		}
		argc := len(c.args)
		if err := enc.Len(&argc); err != nil {
			tb.Fatal(err)
		}
		for _, a := range c.args {
			if err := rpc.EncodeValue(reg, nil, enc, reflect.ValueOf(a)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return append([]byte(nil), sc.Bytes()...)
}
