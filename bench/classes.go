package main

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/dynload"
)

// The benchmark owns its classes so that their handlers can stamp the
// traced run's leg boundaries and so that a test can break one on purpose.
// Each handler does no work of its own: a sample's cost is all mechanism.

// clockBase anchors every stamp of a run to one monotonic clock (client,
// server and middle tier share the process).
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// stamps is where benchmark-owned handlers record, during a traced run,
// the entry of the first handler and the exit of the last handler of the
// current latency sample. The driver reads and clears them between
// samples; handlers may run on other goroutines, hence the atomics.
type stamps struct {
	on    atomic.Bool
	first atomic.Int64
	last  atomic.Int64
}

func (s *stamps) enter() {
	if s.on.Load() {
		s.first.CompareAndSwap(0, nowNs())
	}
}

func (s *stamps) exit() {
	if !s.on.Load() {
		return
	}
	now := nowNs()
	for {
		old := s.last.Load()
		if old >= now || s.last.CompareAndSwap(old, now) {
			return
		}
	}
}

// take returns and clears the current sample's stamps.
func (s *stamps) take() (first, last int64) {
	return s.first.Swap(0), s.last.Swap(0)
}

// handlerEnv is what every benchmark class receives as its constructor
// environment.
type handlerEnv struct {
	st *stamps
	// broken makes handlers answer wrongly, for the test that proves the
	// verify step notices.
	broken bool
}

// Pinger is the empty synchronous procedure of Fig. 5.1 row d.
type Pinger struct {
	env *handlerEnv
	// calls is read by the generator at the end of a run; the socket
	// between them is not a synchronisation the race detector can see.
	calls atomic.Int64
}

// Ping counts the call and returns the count, so the caller can verify
// that every call executed exactly once and in order.
func (p *Pinger) Ping() int64 {
	p.env.st.enter()
	n := p.calls.Add(1)
	if p.env.broken && n%7 == 0 {
		n++
	}
	p.env.st.exit()
	return n
}

// Echo holds a procedure pointer registered by a client; invoking it is a
// distributed upcall.
type Echo struct {
	mu sync.Mutex
	fn func(int64) int64
}

// Register stores the client's procedure (a RUC proxy on the server).
func (e *Echo) Register(fn func(int64) int64) {
	e.mu.Lock()
	e.fn = fn
	e.mu.Unlock()
}

// Proc returns the stored procedure for server-side invocation.
func (e *Echo) Proc() func(int64) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fn
}

// Call invokes the registered procedure from inside a call, which is how a
// client at the top of a chain drives an upcall through every hop.
func (e *Echo) Call(x int64) (int64, error) {
	fn := e.Proc()
	if fn == nil {
		return 0, fmt.Errorf("bench: echo has no registered procedure")
	}
	return fn(x), nil
}

// Counter is the target of asynchronous batched calls.
type Counter struct {
	env   *handlerEnv
	total int64
	adds  int64
}

// Add has no result, so it can travel in a batch without a reply (§3.4).
func (c *Counter) Add(x int64) {
	c.env.st.enter()
	c.total += x
	c.adds++
	if c.env.broken && c.adds%7 == 0 {
		c.total++
	}
	c.env.st.exit()
}

// Total reports the sum and the number of Adds executed.
func (c *Counter) Total() (int64, int64) { return c.total, c.adds }

// Blob echoes a byte body, the per-byte workload.
type Blob struct{ env *handlerEnv }

// Echo returns its argument.
func (b *Blob) Echo(p []byte) []byte {
	b.env.st.enter()
	if b.env.broken && len(p) > 0 {
		p[len(p)/2] ^= 0xff
	}
	b.env.st.exit()
	return p
}

func benchLibrary(env *handlerEnv) (*dynload.Library, error) {
	lib := dynload.NewLibrary()
	classes := []dynload.Class{
		{Name: "pinger", Version: 1, Type: reflect.TypeOf(&Pinger{}),
			New: func(any) (any, error) { return &Pinger{env: env}, nil }},
		{Name: "echo", Version: 1, Type: reflect.TypeOf(&Echo{}),
			New: func(any) (any, error) { return &Echo{}, nil }},
		{Name: "counter", Version: 1, Type: reflect.TypeOf(&Counter{}),
			New: func(any) (any, error) { return &Counter{env: env}, nil }},
		{Name: "blob", Version: 1, Type: reflect.TypeOf(&Blob{}),
			New: func(any) (any, error) { return &Blob{env: env}, nil }},
	}
	for _, c := range classes {
		if err := lib.Register(c); err != nil {
			return nil, err
		}
	}
	return lib, nil
}
