package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clam/internal/dynload"
)

// Tests for the pooled call frames (internal/invoke) as the dispatcher uses
// them, and for the batch decoder's poisoning rule.

// keeper retains what it is handed, which is exactly what a pooled frame
// must survive: the first call's []byte and string are kept forever.
type keeper struct {
	mu    sync.Mutex
	calls int64
	b     []byte
	s     string
}

func (k *keeper) Keep(b []byte, s string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.calls == 0 {
		k.b, k.s = b, s
	}
	k.calls++
}

func (k *keeper) Kept() ([]byte, string, int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.b, k.s, k.calls
}

// Same returns its arguments, so a caller can tell whose it was given.
func (k *keeper) Same(x int64, tag string) (int64, string) { return x, tag }

func startKeeperServer(t *testing.T, logf func(string, ...any)) (*Server, string) {
	t.Helper()
	lib := testLibrary(t)
	lib.MustRegister(dynload.Class{
		Name: "keeper", Version: 1, Type: reflect.TypeOf(&keeper{}),
		New: func(any) (any, error) { return &keeper{}, nil },
	})
	srv := NewServer(lib, WithServerLog(logf))
	path := filepath.Join(t.TempDir(), "clam.sock")
	if _, err := srv.Listen("unix", path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, path
}

// A handler that keeps its []byte and string arguments must find them
// unchanged after the frame that carried them has been reused many times:
// Release zeroes the cells, so every later decode allocates fresh storage.
func TestFrameReuseDoesNotAliasRetainedArguments(t *testing.T) {
	_, path := startKeeperServer(t, t.Logf)
	c := dialClient(t, path)
	obj, err := c.New("keeper", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte{0xAB}, 64)
	if err := obj.Call("Keep", first, "the first string"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		// Same lengths as the retained values, so a decoder that reused the
		// old backing array would overwrite them in place.
		junk := bytes.Repeat([]byte{byte(i)}, 64)
		if err := obj.Call("Keep", junk, fmt.Sprintf("junk string %05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var b []byte
	var s string
	var calls int64
	if err := obj.CallInto("Kept", []any{&b, &s, &calls}); err != nil {
		t.Fatal(err)
	}
	if calls != 1001 {
		t.Fatalf("Keep ran %d times, want 1001", calls)
	}
	if !bytes.Equal(b, first) || s != "the first string" {
		t.Errorf("retained arguments changed under frame reuse: %x %q", b, s)
	}
}

// Eight goroutines call one method on eight distinct objects (distinct
// objects run in parallel on the executor, drawing frames from the one
// per-stub pool) and must each get back exactly what they sent.
func TestFramesAreNotSharedAcrossConcurrentCalls(t *testing.T) {
	_, path := startKeeperServer(t, t.Logf)
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := dialClient(t, path)
		obj, err := c.New("keeper", 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x, tag := int64(w*1_000_000+i), fmt.Sprintf("worker %d call %d", w, i)
				var gotX int64
				var gotTag string
				if err := obj.CallInto("Same", []any{&gotX, &gotTag}, x, tag); err != nil {
					t.Error(err)
					return
				}
				if gotX != x || gotTag != tag {
					t.Errorf("worker %d saw another call's arguments: sent (%d, %q), got (%d, %q)", w, x, tag, gotX, gotTag)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// An argument that fails to decode leaves the batch stream pointing into
// the middle of that argument. The decoder must be poisoned there, as it is
// when no stub is found: before the fix the next loop iteration parsed the
// bad argument's bytes as a call header.
func TestBatchIsPoisonedAfterArgumentDecodeFailure(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	_, path := startKeeperServer(t, func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	c := dialClient(t, path)
	reports := make(chan FaultReport, 8)
	c.OnFault(func(r FaultReport) { reports <- r })
	obj, err := c.New("counter", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, before := c.rpcConn().Stats()

	if err := obj.Async("Add", "oops"); err != nil { // a string where Add wants an int64
		t.Fatal(err)
	}
	if err := obj.Async("Add", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	// No stray reply: the only frame the server sent on the RPC channel
	// since the batch is the Sync's reply.
	if _, after := c.rpcConn().Stats(); after-before != 1 {
		t.Errorf("server sent %d frames on the rpc channel for the batch and its Sync, want 1", after-before)
	}
	select {
	case r := <-reports:
		if r.Class != "counter" || r.Method != "Add" {
			t.Errorf("fault report = %+v, want counter.Add", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no fault report for the undecodable Add")
	}
	select {
	case r := <-reports:
		t.Errorf("second fault report %+v: the batch yields exactly one", r)
	case <-time.After(200 * time.Millisecond):
	}
	var total int64
	if err := obj.CallInto("Total", []any{&total}); err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("total = %d: the Add after the undecodable one ran", total)
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "bad call header") {
			t.Errorf("server parsed the bad argument as a call header: %s", line)
		}
	}
}
