// Package ruc implements CLAM's Remote UpCall class (ICDCS 1988, §3.5.2):
// "The purpose of the RUC class is to control distributed upcalls."
//
// When a client passes a procedure pointer into the server, the server
// bundler "stores the client's procedure pointer, a pointer to the
// server's upcall bundler, and the client's IPC connection identifier in
// an object of a Remote Upcall (RUC) class. Finally, the compiler
// generates code to call a procedure in the RUC class whenever this
// procedure pointer is used, and returns the pointer to the start of this
// code, which looks like a normal procedure pointer."
//
// Here the Entry is the RUC object; the generated code is a
// reflect.MakeFunc proxy with the declared func type, so server code —
// including dynamically loaded modules that know nothing about
// distribution — invokes it exactly like a local procedure. "Through the
// intervention of the RUC class, the lower level object cannot
// distinguish between registration requests from local objects and those
// from remote objects" (§4.1).
package ruc

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Caller abstracts the client's IPC connection identifier saved in the RUC
// object: it performs the remote call back to the higher-level object. The
// server session layer implements it over the per-client upcall channel.
type Caller interface {
	// Upcall invokes the client procedure procID with args bundled per
	// ft, blocking until the client task completes, and returns the data
	// results (ft's results excluding a trailing error).
	Upcall(procID uint64, ft reflect.Type, args []reflect.Value) ([]reflect.Value, error)
}

// Entry is one RUC object.
type Entry struct {
	// ID identifies the entry within its table.
	ID uint64
	// ProcID is the client's procedure pointer in opaque form.
	ProcID uint64
	// FuncType drives the upcall stubs: argument and result bundling
	// derive from the declared parameter types.
	FuncType reflect.Type
	// Caller is the client connection the upcall travels over.
	Caller Caller

	mu       sync.Mutex
	calls    uint64
	failures uint64
	lastErr  error
}

// Stats reports how often the proxy ran and failed, and the most recent
// failure.
func (e *Entry) Stats() (calls, failures uint64, lastErr error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls, e.failures, e.lastErr
}

func (e *Entry) record(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.calls++
	if err != nil {
		e.failures++
		e.lastErr = err
	}
}

// Table holds the live RUC objects of one server.
type Table struct {
	mu      sync.Mutex
	entries map[uint64]*Entry
	next    uint64
	// onError observes upcall failures that the proxy cannot report
	// because the procedure type has no error result. May be nil.
	onError func(*Entry, error)
}

// NewTable returns an empty table. onError, if non-nil, is invoked for
// upcall failures that cannot be surfaced through the procedure's own
// return values.
func NewTable(onError func(*Entry, error)) *Table {
	return &Table{
		entries: make(map[uint64]*Entry),
		onError: onError,
	}
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// Floor advances the entry-id allocator so future Binds assign IDs
// above n. Journal recovery floors the space with the journaled maximum
// so a restarted server never reuses an identifier a client saw.
func (t *Table) Floor(n uint64) {
	t.mu.Lock()
	if n > t.next {
		t.next = n
	}
	t.mu.Unlock()
}

// Bind creates a RUC object for a client procedure pointer and returns it
// together with the proxy func value that "looks like a normal procedure
// pointer". ft must be a func type. A new entry is created per binding,
// matching the paper's "for each translation, an object instance is
// created in the RUC class".
func (t *Table) Bind(procID uint64, ft reflect.Type, c Caller) (*Entry, reflect.Value, error) {
	if ft == nil || ft.Kind() != reflect.Func {
		return nil, reflect.Value{}, fmt.Errorf("ruc: bind of non-func type %v", ft)
	}
	if ft.IsVariadic() {
		return nil, reflect.Value{}, fmt.Errorf("ruc: variadic procedure type %s not supported", ft)
	}
	t.mu.Lock()
	t.next++
	e := &Entry{ID: t.next, ProcID: procID, FuncType: ft, Caller: c}
	t.entries[e.ID] = e
	t.mu.Unlock()

	// What the proxy needs of the procedure's type is worked out here, once
	// per binding: a zero value for every result, the error slot included.
	zeros := make([]reflect.Value, ft.NumOut())
	for i := range zeros {
		zeros[i] = reflect.Zero(ft.Out(i))
	}
	hasErr := len(zeros) > 0 && ft.Out(len(zeros)-1) == errType

	proxy := reflect.MakeFunc(ft, func(args []reflect.Value) []reflect.Value {
		rets, err := c.Upcall(procID, ft, args)
		e.record(err)
		// reflect reads the results out of this slice after the proxy
		// returns, so it cannot be a pooled frame's.
		out := append([]reflect.Value(nil), zeros...)
		if err == nil {
			copy(out, rets)
			return out
		}
		// Zero data results; the failure surfaces through the error slot
		// when there is one, otherwise through onError. The copy keeps err
		// itself off the heap on the success path.
		if hasErr {
			failure := err
			out[len(out)-1] = reflect.ValueOf(&failure).Elem()
		} else if t.onError != nil {
			t.onError(e, err)
		}
		return out
	})
	return e, proxy, nil
}

// Get returns the entry with the given id.
func (t *Table) Get(id uint64) (*Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	return e, ok
}

// Len reports the number of live entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Entries returns the live entries sorted by id.
func (t *Table) Entries() []*Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DropCaller removes every entry bound to c — used when a client
// disconnects so its RUC objects stop accumulating. Proxies already handed
// to server objects keep failing gracefully through the entry's Caller.
func (t *Table) DropCaller(c Caller) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, e := range t.entries {
		if e.Caller == c {
			delete(t.entries, id)
			n++
		}
	}
	return n
}
