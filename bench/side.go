package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"

	"clam/internal/core"
	"clam/internal/wire"
)

// Side experiments of the traced run: the same small call priced over
// other transports and placements, so that a reader can split call_unix's
// latency into protocol and kernel shares, and the price of a hop and of a
// session. They are fixed-count and the same whichever workload the traced
// run is for.

// A real run prices each call shape over sideCalls calls and a session's
// life over a fortieth as many cycles.
const sideCalls = 20000

// timeCalls runs fn n times after a tenth as many warm-up calls and
// returns the median duration and the allocations per call.
func timeCalls(n int, fn func() error) (p50ns, allocs float64, err error) {
	for i := 0; i < n/10; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	rec := newRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := nowNs()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		rec.add(nowNs() - t0)
	}
	runtime.ReadMemStats(&m1)
	return rec.percentile(0.5), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// timeInstance prices a booted workload's op with timeCalls and closes it.
func timeInstance(n int, in *instance) (p50ns, allocs float64, _ error) {
	defer in.close()
	return timeCalls(n, func() error {
		if _, err := in.op(nil); err != nil {
			return err
		}
		return in.check()
	})
}

func sideExperiments(res *result, dir string, seed uint64, calls int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := &rig{dir: dir, seed: seed, env: &handlerEnv{st: &stamps{}}}

	// The same Ping over an in-process pipe and over the shared-memory
	// rings: no kernel socket in either.
	pingOver := func(sock string, opts ...core.ServerOption) (float64, float64, error) {
		rr := *r
		rr.serverOpts = opts
		srv, addr, objs, err := bootServer(&rr, sock, "pinger")
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		var c *core.Client
		if sock == "" {
			c, err = core.SelfDial(srv, quietClient)
		} else {
			c, err = core.Dial("unix", addr, quietClient)
		}
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		rem, err := c.NamedObject("pinger")
		if err != nil {
			return 0, 0, err
		}
		return timeInstance(calls, pingInstance(rem, objs["pinger"].(*Pinger)))
	}
	p50, allocs, err := pingOver("")
	if err != nil {
		return fmt.Errorf("pipe call: %w", err)
	}
	res.set(mCallPipeP50, mCallPipeP50.fromNs(p50))
	res.set(mCallPipeAllocs, allocs)
	// Where the platform has no shared memory the dial falls back to the
	// socket by itself, and this row reads like call_unix.
	p50, allocs, err = pingOver("shm.sock", core.WithSharedMemory(0))
	if err != nil {
		return fmt.Errorf("shm call: %w", err)
	}
	res.set(mShmCallP50, mShmCallP50.fromNs(p50))
	res.set(mShmCallAllocs, allocs)

	// What a hop adds: relay_hop's op minus call_unix's, both priced here
	// the same way.
	price := func(boot func(*rig) (*instance, error)) (float64, float64, error) {
		in, err := boot(r)
		if err != nil {
			return 0, 0, err
		}
		return timeInstance(calls, in)
	}
	direct, directAllocs, err := price(bootCallUnix)
	if err != nil {
		return fmt.Errorf("direct call: %w", err)
	}
	relayed, relayedAllocs, err := price(bootRelayHop)
	if err != nil {
		return fmt.Errorf("relayed call: %w", err)
	}
	res.set(mHopAddedP50, mHopAddedP50.fromNs(relayed-direct))
	res.set(mHopAddedAllocs, relayedAllocs-directAllocs)

	if p50, err = upcallThroughChain(r, calls/2); err != nil {
		return fmt.Errorf("relayed upcall: %w", err)
	}
	res.set(mUpcallRelayP50, mUpcallRelayP50.fromNs(p50))

	if p50, err = unixEcho(filepath.Join(dir, "echo.sock"), calls); err != nil {
		return fmt.Errorf("unix echo: %w", err)
	}
	res.set(mUnixEchoP50, mUnixEchoP50.fromNs(p50))

	return sessionCycles(res, r, max(calls/40, 10))
}

// upcallThroughChain prices echo.Call through client → mid → bottom: the
// bottom server's upcall climbs back through the middle tier's relay to
// the client's handler before the call returns.
func upcallThroughChain(r *rig, calls int) (float64, error) {
	bottom, _, _, err := bootServer(r, "", "echo")
	if err != nil {
		return 0, err
	}
	defer bottom.Close()
	mid, addr, _, err := bootServer(r, "chain.sock")
	if err != nil {
		return 0, err
	}
	defer mid.Close()
	up, err := core.SelfDialUpstream(mid, bottom, quietClient)
	if err != nil {
		return 0, err
	}
	if err := mid.ImportNamed(up, "echo"); err != nil {
		return 0, err
	}
	c, rem, err := dialNamed(addr, "echo")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := rem.Call("Register", func(x int64) int64 { return x + 1 }); err != nil {
		return 0, err
	}
	var got int64
	rets := []any{&got}
	args := []any{int64(41)}
	p50, _, err := timeCalls(calls, func() error {
		if err := rem.CallInto("Call", rets, args...); err != nil {
			return err
		}
		if got != 42 {
			return fmt.Errorf("relayed upcall returned %d", got)
		}
		return nil
	})
	return p50, err
}

// unixEcho is a raw frame ping-pong over a unix socket with bodies the
// size of a Ping call's: the kernel's share of call_unix, no protocol.
func unixEcho(path string, calls int) (float64, error) {
	ln, err := net.Listen("unix", path)
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	served := make(chan error, 1) // the echo goroutine's one exit status
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		conn := wire.NewConn(raw)
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				served <- nil // the dialer closed: done
				return
			}
			if err := conn.Send(m); err != nil {
				served <- err
				return
			}
		}
	}()
	raw, err := net.Dial("unix", path)
	if err != nil {
		ln.Close()
		<-served
		return 0, err
	}
	conn := wire.NewConn(raw)
	body := make([]byte, 48)
	p50, _, err := timeCalls(calls, func() error {
		if err := conn.SendFrame(wire.MsgCall, 1, body); err != nil {
			return err
		}
		m, err := conn.Recv()
		if err != nil {
			return err
		}
		m.Release()
		return nil
	})
	conn.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	return p50, err
}

// sessionCycles prices a session's life: dial, first use, close.
func sessionCycles(res *result, r *rig, cycles int) error {
	srv, addr, _, err := bootServer(r, "cycle.sock", "pinger")
	if err != nil {
		return err
	}
	defer srv.Close()
	dial, first, closing := newRecorder(), newRecorder(), newRecorder()
	var out int64
	rets := []any{&out}
	for i := 0; i < cycles; i++ {
		t0 := nowNs()
		c, err := core.Dial("unix", addr, quietClient)
		if err != nil {
			return fmt.Errorf("session cycle %d: %w", i, err)
		}
		t1 := nowNs()
		rem, err := c.NamedObject("pinger")
		if err == nil {
			err = rem.CallInto("Ping", rets)
		}
		t2 := nowNs()
		c.Close()
		t3 := nowNs()
		if err != nil {
			return fmt.Errorf("session cycle %d: %w", i, err)
		}
		dial.add(t1 - t0)
		first.add(t2 - t1)
		closing.add(t3 - t2)
	}
	res.set(mSessionDial, mSessionDial.fromNs(dial.percentile(0.5)))
	res.set(mSessionFirst, mSessionFirst.fromNs(first.percentile(0.5)))
	res.set(mSessionClose, mSessionClose.fromNs(closing.percentile(0.5)))
	return nil
}
