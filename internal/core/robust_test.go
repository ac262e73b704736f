package core

import (
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"clam/internal/dynload"
	"clam/internal/wire"
	"clam/internal/xdr"
)

// Robustness: random garbage in message bodies must never panic the
// server — only produce errors, dropped frames or closed sessions.

func TestServerSurvivesRandomBodies(t *testing.T) {
	srv, path := startServer(t)
	rng := rand.New(rand.NewPCG(7, 7))

	types := []wire.MsgType{wire.MsgCall, wire.MsgLoad, wire.MsgSync, wire.MsgUpcallReply, wire.MsgType(77)}
	for round := 0; round < 40; round++ {
		conn, err := net.Dial("unix", path)
		if err != nil {
			t.Fatal(err)
		}
		wc := wire.NewConn(conn)
		// Sometimes complete the handshake, sometimes skip it.
		if round%2 == 0 {
			var body bytesBuf
			h := helloBody{Role: roleRPC}
			h.bundle(xdrEnc(&body))
			wc.Send(&wire.Msg{Type: wire.MsgHello, Seq: 1, Body: body.b})
			wc.Recv()
		}
		for i := 0; i < 5; i++ {
			body := make([]byte, rng.IntN(200))
			for j := range body {
				body[j] = byte(rng.UintN(256))
			}
			wc.Send(&wire.Msg{
				Type: types[rng.IntN(len(types))],
				Seq:  rng.Uint64(),
				Body: body,
			})
		}
		wc.Close()
	}

	// Give the server a moment to chew through the garbage, then verify
	// it still works.
	deadline := time.Now().Add(3 * time.Second)
	for srv.SessionCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c := dialClient(t, path)
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Call("Add", int64(1)); err != nil {
		t.Errorf("server degraded by garbage: %v", err)
	}
}

func TestClientSurvivesRandomUpcallBodies(t *testing.T) {
	// A hostile/buggy server sending garbage upcalls must not panic the
	// client. Build a fake server speaking just enough protocol.
	ln, err := net.Listen("unix", t.TempDir()+"/fake.sock")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for n := uint64(0); ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// One generator per connection: a client dials two channels, and
			// a shared rand.Rand is a data race between their goroutines.
			rng := rand.New(rand.NewPCG(3, 9+n))
			go func(conn net.Conn) {
				wc := wire.NewConn(conn)
				msg, err := wc.Recv()
				if err != nil || msg.Type != wire.MsgHello {
					wc.Close()
					return
				}
				var body bytesBuf
				reply := helloReplyBody{Session: 1}
				reply.bundle(xdrEnc(&body))
				wc.Send(&wire.Msg{Type: wire.MsgHelloReply, Seq: msg.Seq, Body: body.b})
				// Spray garbage upcalls and errors at the client.
				for i := 0; i < 20; i++ {
					b := make([]byte, rng.IntN(100))
					for j := range b {
						b[j] = byte(rng.UintN(256))
					}
					ty := wire.MsgUpcall
					if i%3 == 0 {
						ty = wire.MsgError
					}
					if err := wc.Send(&wire.Msg{Type: ty, Seq: uint64(i), Body: b}); err != nil {
						break
					}
				}
			}(conn)
		}
	}()

	c, err := Dial("unix", ln.Addr().String(), WithClientLog(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(200 * time.Millisecond) // let the garbage arrive
	// Client is alive: Close works without panic.
}

func TestConcurrentLoadUnloadChurn(t *testing.T) {
	srv, path := startServer(t)
	_ = srv
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial("unix", path, WithClientLog(func(string, ...any) {}))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				obj, err := c.New("counter", 0)
				if err != nil {
					// Another goroutine may have unloaded between the
					// load and the instantiate — acceptable, retry.
					continue
				}
				obj.Call("Add", int64(1))
				if i%2 == 0 {
					c.Unload("counter", 1)
				}
			}
		}(i)
	}
	wg.Wait()
	// The library still has the class; a fresh load works.
	c := dialClient(t, path)
	if _, err := c.New("counter", 0); err != nil {
		t.Errorf("final load failed: %v", err)
	}
}

// xdrEnc is a tiny helper for the fake-server tests.
func xdrEnc(w *bytesBuf) *xdr.Stream { return xdr.NewEncoder(w) }

var _ = dynload.ErrNotLoaded
