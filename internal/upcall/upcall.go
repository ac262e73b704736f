// Package upcall implements CLAM's upcall registration and dispatch
// mechanism (ICDCS 1988, §4.1).
//
// "Registration involves informing a lower level object how to call a
// higher level object when an event occurs. The lower level object
// provides the upper level object with a registration procedure to call.
// When its registration procedure is called, a lower level object stores
// the information it receives in its own state. When an event occurs that
// requires an upcall to be made, the lower level object uses this stored
// information to determine which higher level object should receive the
// call. It is possible that zero or more higher layers may be registered
// to receive the upcall. If there are no higher layers interested in the
// event, then the lower level object decides what to do with the event.
// For example, it may queue up the event for later use or may throw it
// away."
//
// A Registry is the state a lower-level object keeps. Registered
// procedures are plain Go funcs; when the upper layer lives in another
// address space, the func is a RUC proxy (internal/ruc) and the lower
// layer cannot tell the difference — which is the whole point.
//
// Each layer given an event may map it, queue it, discard it, or pass it
// up (§1): mapping and passing up happen inside handlers; queueing and
// discarding are the Registry's no-handler policies.
package upcall

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"clam/internal/invoke"
)

// Policy says what a lower-level object does with an event no higher layer
// has registered for. Discard and Queue are the paper's two options
// (§4.1); DropOldest and Block are the robustness layer's graceful-
// degradation variants for bounded queues under sustained overload.
type Policy int

const (
	// Discard throws unclaimed events away.
	Discard Policy = iota + 1
	// Queue keeps unclaimed events for later retrieval ("it may queue up
	// the event for later use"); posting to a full queue is an error.
	Queue
	// DropOldest keeps unclaimed events like Queue, but a full queue
	// evicts its oldest event instead of rejecting the new one — fresh
	// events are worth more than stale ones under overload.
	DropOldest
	// Block keeps unclaimed events like Queue, but a Post against a full
	// queue waits until a consumer drains the queue or a handler
	// registers — backpressure instead of loss. Use only when some other
	// goroutine is guaranteed to Drain, Replay or Register.
	Block
)

// Registration errors.
var (
	ErrNotFunc   = errors.New("upcall: registered procedure is not a func")
	ErrQueueFull = errors.New("upcall: event queue full")
	ErrBadArgs   = errors.New("upcall: arguments do not match registered procedure")
)

// DefaultMaxQueue bounds each event queue unless overridden.
const DefaultMaxQueue = 1024

// Event is a queued occurrence.
type Event struct {
	Name string
	Args []any
}

type registration struct {
	id uint64
	fn reflect.Value
	// plan is compiled from fn's type at registration; its pooled frames
	// carry each delivery's arguments.
	plan *invoke.Plan
}

// Registry stores upcall registrations for one lower-level object. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals Block-policy waiters; lazily nil until needed
	slots    map[string][]registration
	queues   map[string][]Event
	policy   Policy
	maxQueue int
	nextID   uint64
	dropped  uint64 // events lost to Discard or DropOldest eviction
}

// Option configures a Registry.
type Option func(*Registry)

// WithPolicy sets the no-handler policy (default Discard).
func WithPolicy(p Policy) Option {
	return func(r *Registry) { r.policy = p }
}

// WithMaxQueue bounds each event queue (default DefaultMaxQueue).
func WithMaxQueue(n int) Option {
	return func(r *Registry) { r.maxQueue = n }
}

// NewRegistry returns an empty registry.
func NewRegistry(opts ...Option) *Registry {
	r := &Registry{
		slots:    make(map[string][]registration),
		queues:   make(map[string][]Event),
		policy:   Discard,
		maxQueue: DefaultMaxQueue,
	}
	r.cond = sync.NewCond(&r.mu)
	for _, o := range opts {
		o(r)
	}
	return r
}

// Register stores fn as a receiver for the named event — the paper's
// postinput-style registration procedure. fn must be a func; its
// parameters define what Post may deliver, and the types are checked at
// delivery, the run-time analogue of §4.1's compile-time typechecking of
// registration parameters. The returned id can be passed to Unregister.
func (r *Registry) Register(event string, fn any) (uint64, error) {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.Kind() != reflect.Func || v.IsNil() {
		return 0, fmt.Errorf("%w: %T", ErrNotFunc, fn)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.slots[event] = append(r.slots[event], registration{id: r.nextID, fn: v, plan: invoke.Compile(v.Type(), 0)})
	r.cond.Broadcast() // Block-policy posters may now deliver instead
	return r.nextID, nil
}

// Unregister removes a registration, reporting whether it existed.
func (r *Registry) Unregister(event string, id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	regs := r.slots[event]
	for i, g := range regs {
		if g.id == id {
			r.slots[event] = append(regs[:i:i], regs[i+1:]...)
			return true
		}
	}
	return false
}

// Handlers reports how many procedures are registered for event.
func (r *Registry) Handlers(event string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots[event])
}

// Post makes an upcall for event to every registered procedure, in
// registration order, and reports how many received it. "Events would be
// processed quickly, since upcalls are basically procedure calls" (§2.1):
// each delivery is a direct call of fn — local funcs run inline and RUC
// proxies cross to the client, indistinguishably.
//
// With no registered handler, the event is queued or discarded per the
// registry's policy and delivered count is 0.
func (r *Registry) Post(event string, args ...any) (int, error) {
	r.mu.Lock()
	for {
		if regs := r.slots[event]; len(regs) > 0 {
			rc := append([]registration(nil), regs...)
			r.mu.Unlock()
			// Deliver outside the lock: handlers may re-register,
			// unregister, or post further events (pass the event up to
			// the next layer).
			for _, g := range rc {
				if err := g.call(args); err != nil {
					return 0, err
				}
			}
			return len(rc), nil
		}
		switch r.policy {
		case Queue:
			q := r.queues[event]
			if len(q) >= r.maxQueue {
				r.mu.Unlock()
				return 0, fmt.Errorf("%w: %q at %d", ErrQueueFull, event, r.maxQueue)
			}
			r.queues[event] = append(q, Event{Name: event, Args: args})
			r.mu.Unlock()
			return 0, nil
		case DropOldest:
			q := r.queues[event]
			if len(q) >= r.maxQueue && len(q) > 0 {
				q = append(q[:0], q[1:]...)
				r.dropped++
			}
			r.queues[event] = append(q, Event{Name: event, Args: args})
			r.mu.Unlock()
			return 0, nil
		case Block:
			if len(r.queues[event]) < r.maxQueue {
				r.queues[event] = append(r.queues[event], Event{Name: event, Args: args})
				r.mu.Unlock()
				return 0, nil
			}
			// Full: wait for a Drain/Replay/Register, then re-evaluate —
			// a handler may have appeared, making this a delivery.
			r.cond.Wait()
		default: // Discard
			r.dropped++
			r.mu.Unlock()
			return 0, nil
		}
	}
}

// ConvertArgs checks loosely typed arguments against the parameters of
// func type ft and returns them as call-ready values, applying the same
// conversions Post applies before invoking a handler: nil becomes the
// zero value, exact and assignable types pass through, and numeric
// widths convert within their kind family. It is the run-time analogue
// of §4.1's compile-time typechecking of registration parameters, shared
// by every layer that turns event payloads into upcall arguments.
func ConvertArgs(ft reflect.Type, args []any) ([]reflect.Value, error) {
	if ft == nil || ft.Kind() != reflect.Func {
		return nil, fmt.Errorf("%w: %v is not a func type", ErrNotFunc, ft)
	}
	if ft.NumIn() != len(args) {
		return nil, fmt.Errorf("%w: takes %d, got %d", ErrBadArgs, ft.NumIn(), len(args))
	}
	in := make([]reflect.Value, len(args))
	for i, a := range args {
		v, err := convertArg(ft.In(i), a, i)
		if err != nil {
			return nil, err
		}
		in[i] = v
	}
	return in, nil
}

// convertArg converts argument i to parameter type pt.
func convertArg(pt reflect.Type, a any, i int) (reflect.Value, error) {
	av := reflect.ValueOf(a)
	switch {
	case !av.IsValid():
		return reflect.Zero(pt), nil
	case av.Type() == pt:
		return av, nil
	case av.Type().ConvertibleTo(pt) && compatibleKinds(av.Kind(), pt.Kind()):
		return av.Convert(pt), nil
	case av.Type().AssignableTo(pt):
		return av, nil
	}
	return reflect.Value{}, fmt.Errorf("%w: argument %d is %s, want %s", ErrBadArgs, i, av.Type(), pt)
}

// call delivers one event to the registered procedure: the arguments are
// converted straight into the cells of a pooled frame. A trailing error
// result propagates to the poster.
func (g registration) call(args []any) error {
	f := g.plan.Frame()
	defer f.Release()
	if len(args) != len(f.Args()) {
		return fmt.Errorf("%w: takes %d, got %d", ErrBadArgs, len(f.Args()), len(args))
	}
	for i, cell := range f.Args() {
		v, err := convertArg(cell.Type(), args[i], i)
		if err != nil {
			return err
		}
		cell.Set(v)
	}
	_, err := f.Call(g.fn)
	return err
}

// compatibleKinds permits numeric width conversions but not cross-family
// conversions that ConvertibleTo would allow (e.g. int→string).
func compatibleKinds(a, b reflect.Kind) bool {
	family := func(k reflect.Kind) int {
		switch k {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return 1
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return 2
		case reflect.Float32, reflect.Float64:
			return 3
		default:
			return 0
		}
	}
	fa, fb := family(a), family(b)
	return fa != 0 && fa == fb
}

// Drain returns and clears the queued events for event.
func (r *Registry) Drain(event string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.queues[event]
	delete(r.queues, event)
	r.cond.Broadcast() // Block-policy posters may now enqueue
	return q
}

// Dropped reports how many events the registry has thrown away: events
// with no handler under Discard, plus queue evictions under DropOldest.
func (r *Registry) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Queued reports how many events are queued for event.
func (r *Registry) Queued(event string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queues[event])
}

// Replay posts every queued event for event to the now-registered
// handlers, in arrival order. Events that again find no handler follow
// the registry policy.
func (r *Registry) Replay(event string) (int, error) {
	delivered := 0
	for _, e := range r.Drain(event) {
		n, err := r.Post(e.Name, e.Args...)
		if err != nil {
			return delivered, err
		}
		delivered += n
	}
	return delivered, nil
}
