// Package invoke is the one place CLAM calls a procedure it knows only by
// reflection. The paper's stub compiler (ICDCS 1988, §3.4) fixed every
// call's argument layout at compile time; Compile does that work once, when
// a method or procedure is registered, and what is left per call is taking
// a frame from the plan's pool, filling its cells, and one reflect.Call.
//
// # Frame lifetime and ownership
//
// A Frame belongs to whoever took it from Plan.Frame until that caller's
// Release; nothing else may hold the frame or a cell (a Value from Args)
// past Release. The procedure itself never sees a cell: reflect.Call copies
// each argument out of its cell, so what a procedure may legitimately keep
// is what the cell *referred to* — a []byte's array, a string's bytes, a
// pointee, a map. Release therefore zeroes every cell before the frame goes
// back to the pool: the next decode finds nil slices, strings, pointers and
// maps and must allocate fresh storage for them, so reference-typed
// arguments are always freshly allocated and a procedure that retained one
// is never aliased by a later call. (Zeroing is also what lets the garbage
// collector free a large argument while its frame idles in the pool.)
package invoke

import (
	"reflect"
	"sync"
)

var errType = reflect.TypeOf((*error)(nil)).Elem()

// Plan is the compiled call plan of one procedure type.
type Plan struct {
	// HasErr reports that the procedure's last result is an error, which
	// Frame.Call splits off the data results: it travels as call status.
	HasErr bool

	lead   int            // leading reflect.Call slots the caller supplies (receiver, context)
	params []reflect.Type // the parameters that get a cell
	pool   sync.Pool      // idle *Frame
}

// Compile builds the plan for func type ft. The first lead parameters are
// supplied by the caller of Frame.Call on every call (a method's receiver,
// an injected context); each remaining parameter gets a cell.
func Compile(ft reflect.Type, lead int) *Plan {
	p := &Plan{lead: lead}
	for i := lead; i < ft.NumIn(); i++ {
		p.params = append(p.params, ft.In(i))
	}
	n := ft.NumOut()
	p.HasErr = n > 0 && ft.Out(n-1) == errType
	return p
}

// Frame is one call's argument frame: the argument list reflect.Call
// takes, and behind it one addressable, settable cell per parameter.
type Frame struct {
	plan  *Plan
	in    []reflect.Value // lead slots, then the arguments
	cells []reflect.Value // one per parameter; in[lead:] refers to these between calls
}

// Frame takes an idle frame from the plan's pool, or builds one. Its cells
// hold zero values.
func (p *Plan) Frame() *Frame {
	if f, _ := p.pool.Get().(*Frame); f != nil {
		return f
	}
	n := len(p.params)
	buf := make([]reflect.Value, p.lead+2*n)
	f := &Frame{plan: p, in: buf[: p.lead+n : p.lead+n], cells: buf[p.lead+n:]}
	for i, t := range p.params {
		f.cells[i] = reflect.New(t).Elem()
	}
	copy(f.in[p.lead:], f.cells)
	return f
}

// Args returns the frame's cells, in parameter order, for a decoder to
// fill in place.
func (f *Frame) Args() []reflect.Value { return f.cells }

// Call invokes fn with the lead values followed by the frame's arguments,
// and splits a trailing error result off the data results.
func (f *Frame) Call(fn reflect.Value, lead ...reflect.Value) (rets []reflect.Value, appErr error) {
	copy(f.in, lead)
	rets = fn.Call(f.in)
	if f.plan.HasErr {
		n := len(rets) - 1
		if e := rets[n]; !e.IsNil() {
			appErr = e.Interface().(error)
		}
		rets = rets[:n]
	}
	return rets, appErr
}

// Set supplies arguments the caller already holds as values, in place of
// decoding into the cells; the next Call passes them.
func (f *Frame) Set(args []reflect.Value) { copy(f.in[f.plan.lead:], args) }

// Release zeroes the frame and returns it to its plan's pool. The frame,
// its cells and any Value obtained from Args are dead after this call.
func (f *Frame) Release() {
	lead := f.plan.lead
	clear(f.in[:lead])
	for i, c := range f.cells {
		c.SetZero()
		f.in[lead+i] = c
	}
	f.plan.pool.Put(f)
}
