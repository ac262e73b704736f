package rpc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"

	"clam/internal/bundle"
	"clam/internal/invoke"
	"clam/internal/xdr"
)

// This file is the server side of the paper's stub compiler (§3.4): "The
// compiler, given a procedure declaration, will generate a pair of stubs,
// one for clients and one for the server, and the code for the procedure
// itself." Client stubs here are the generic tagged encoder in codec.go
// (the client bundles by dynamic type); server stubs are compiled per
// class from its reflect.Type when the class is loaded.

// Dispatch errors.
var (
	ErrNoMethod = errors.New("rpc: no such method")
	ErrNotAsync = errors.New("rpc: method cannot be called asynchronously")
)

// ClassStubs holds the compiled method stubs for one class type.
type ClassStubs struct {
	// Type is the instance type the stubs dispatch on (pointer to struct).
	Type reflect.Type
	// Class is the class's registered name, set by whoever loads the stubs;
	// it labels the per-method call counts and fault reports.
	Class   string
	methods map[string]*MethodStub
	// skipped records methods that could not be compiled and why, so a
	// remote call to one produces a useful error.
	skipped map[string]error
	// retired marks the stubs of an unloaded class. A handle-table entry
	// caches its class's stubs so that a call resolves in one lookup; the
	// flag is how that cache learns the class is gone.
	retired atomic.Bool
}

// Retire marks the class unloaded: objects that still name these stubs
// stop dispatching.
func (cs *ClassStubs) Retire() { cs.retired.Store(true) }

// Retired reports whether the class has been unloaded.
func (cs *ClassStubs) Retired() bool { return cs.retired.Load() }

// Lookup is Method for a name still in wire form: the dispatcher passes a
// view into the frame body, and no string is built unless the lookup fails.
func (cs *ClassStubs) Lookup(name []byte) (*MethodStub, error) {
	if m, ok := cs.methods[string(name)]; ok {
		return m, nil
	}
	return cs.Method(string(name))
}

// AddCalls adds every method's dispatch count into counts, keyed
// "Class.Method"; methods never called are left out.
func (cs *ClassStubs) AddCalls(counts map[string]uint64) {
	for name, m := range cs.methods {
		if n := m.Calls.Load(); n != 0 {
			counts[cs.Class+"."+name] += n
		}
	}
}

// Method returns the stub for name.
func (cs *ClassStubs) Method(name string) (*MethodStub, error) {
	if m, ok := cs.methods[name]; ok {
		return m, nil
	}
	if why, ok := cs.skipped[name]; ok {
		return nil, fmt.Errorf("%w: %s.%s is not remotely callable: %v",
			ErrNoMethod, cs.Type, name, why)
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoMethod, cs.Type, name)
}

// MethodNames lists the remotely callable methods.
func (cs *ClassStubs) MethodNames() []string {
	names := make([]string, 0, len(cs.methods))
	for n := range cs.methods {
		names = append(names, n)
	}
	return names
}

// ArgStub describes one compiled parameter.
type ArgStub struct {
	Type reflect.Type
	Fn   bundle.Func
	Mode bundle.Mode
	Kind Kind
	// ElemFn/ElemKind are compiled for the pointee of data-pointer
	// parameters, used to ship out/inout results back (§3.2's result
	// parameters).
	ElemFn   bundle.Func
	ElemKind Kind
}

// MethodStub is the compiled server stub for one method: it knows how to
// unbundle the arguments, invoke the procedure, and bundle results and
// out-parameters back.
type MethodStub struct {
	Name string
	fn   reflect.Value // method func; first arg is the receiver
	// plan owns the pooled argument frames (invoke's package comment has
	// their lifetime rule); its lead slots are the receiver and, for
	// TakesCtx methods, the injected context.
	plan *invoke.Plan
	Args []ArgStub
	// Rets excludes a trailing error result, which travels as call status.
	Rets   []ArgStub
	HasErr bool
	// Calls counts dispatches of the method, all outcomes; the dispatcher
	// adds to it once the arguments are decoded.
	Calls atomic.Uint64
	// Asyncable methods have no results and no out-parameters, so they
	// can be batched without a reply (§3.4: "when no return values are
	// needed, the remote call can be delayed, and put in a batch").
	Asyncable bool
	// TakesCtx marks a method whose first parameter is a context.Context.
	// The context never travels on the wire: Invoke injects the server's
	// per-call context, carrying the caller's deadline budget and cancelled
	// by a MsgCancel, so loaded code can observe abandonment.
	TakesCtx bool
}

var (
	errType = reflect.TypeOf((*error)(nil)).Elem()
	ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()
)

// CompileClass compiles stubs for every remotely callable exported method
// of t (a pointer-to-struct type). Methods whose parameter or result types
// cannot be bundled are skipped with a recorded reason rather than failing
// the whole class, since classes may have server-local methods. specs
// refines parameter modes and bundlers per method.
func CompileClass(reg *bundle.Registry, t reflect.Type, specs map[string]bundle.MethodSpec) (*ClassStubs, error) {
	if t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("rpc: class type %s is not a pointer to struct", t)
	}
	cs := &ClassStubs{
		Type:    t,
		methods: make(map[string]*MethodStub),
		skipped: make(map[string]error),
	}
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		var spec *bundle.MethodSpec
		if s, ok := specs[m.Name]; ok {
			spec = &s
		}
		stub, err := compileMethod(reg, m, spec)
		if err != nil {
			cs.skipped[m.Name] = err
			continue
		}
		cs.methods[m.Name] = stub
	}
	return cs, nil
}

func compileMethod(reg *bundle.Registry, m reflect.Method, spec *bundle.MethodSpec) (*MethodStub, error) {
	mt := m.Func.Type()
	stub := &MethodStub{Name: m.Name, fn: m.Func}

	first := 1 // 0 is the receiver
	if mt.NumIn() > 1 && mt.In(1) == ctxType {
		stub.TakesCtx = true
		first = 2
	}
	stub.plan = invoke.Compile(mt, first)
	for i := first; i < mt.NumIn(); i++ {
		pt := mt.In(i)
		ps := spec.Param(i - first)
		arg, err := compileArg(reg, pt, ps)
		if err != nil {
			return nil, fmt.Errorf("parameter %d (%s): %w", i-first, pt, err)
		}
		stub.Args = append(stub.Args, arg)
	}

	nOut := mt.NumOut()
	if nOut > 0 && mt.Out(nOut-1) == errType {
		stub.HasErr = true
		nOut--
	}
	for i := 0; i < nOut; i++ {
		rt := mt.Out(i)
		arg, err := compileArg(reg, rt, nil)
		if err != nil {
			return nil, fmt.Errorf("result %d (%s): %w", i, rt, err)
		}
		stub.Rets = append(stub.Rets, arg)
	}

	stub.Asyncable = len(stub.Rets) == 0 && !stub.HasErr
	for _, a := range stub.Args {
		if a.Mode != bundle.In {
			stub.Asyncable = false
		}
	}
	return stub, nil
}

func compileArg(reg *bundle.Registry, t reflect.Type, ps *bundle.ParamSpec) (ArgStub, error) {
	arg := ArgStub{Type: t, Kind: KindOf(t, nil)}
	// KindOf with a nil ctx cannot see the object hook; reclassify
	// plain struct pointers at dispatch time via the live ctx. Func
	// kinds and everything else are context-independent.
	if arg.Kind == 0 {
		return arg, fmt.Errorf("%w: %s", bundle.ErrNoBundler, t)
	}

	// Default modes: values are In (const — "the parameter cannot change
	// during the call"); data pointers are InOut (copied both ways, the
	// closest realizable semantics to reference parameters, §3.1);
	// procedure and object pointers are In.
	switch {
	case t.Kind() == reflect.Ptr:
		arg.Mode = bundle.InOut
	default:
		arg.Mode = bundle.In
	}
	var err error
	if ps != nil && ps.Bundler != "" {
		arg.Fn, err = reg.Named(ps.Bundler)
	} else {
		arg.Fn, err = reg.Compile(t)
	}
	if err != nil {
		return arg, err
	}
	if ps != nil && ps.Mode != 0 {
		arg.Mode = ps.Mode
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() != reflect.Func {
		arg.ElemKind = KindOf(t.Elem(), nil)
		if arg.ElemKind != 0 {
			arg.ElemFn, err = reg.Compile(t.Elem())
			if err != nil {
				return arg, err
			}
		}
	}
	return arg, nil
}

// liveKind resolves the arg's wire kind under the call's ctx (object
// pointers become handles only when the session recognizes the class).
func (a *ArgStub) liveKind(ctx *bundle.Ctx) Kind {
	if a.Type.Kind() == reflect.Ptr {
		return KindOf(a.Type, ctx)
	}
	return a.Kind
}

// Frame takes a pooled argument frame for one call of the method. The
// caller releases it once the reply is encoded.
func (st *MethodStub) Frame() *invoke.Frame { return st.plan.Frame() }

// DecodeInto unbundles a call's arguments per the stub into f's cells.
// Out-mode pointer parameters that arrive nil are allocated so the
// procedure always has somewhere to store its result.
func (st *MethodStub) DecodeInto(ctx *bundle.Ctx, s *xdr.Stream, f *invoke.Frame) error {
	var argc int
	if err := s.Len(&argc); err != nil {
		return err
	}
	if argc != len(st.Args) {
		return fmt.Errorf("rpc: %s takes %d parameters, caller sent %d",
			st.Name, len(st.Args), argc)
	}
	for i, target := range f.Args() {
		a := &st.Args[i]
		if err := DecodeValueWith(ctx, s, target, a.Fn, a.liveKind(ctx)); err != nil {
			return fmt.Errorf("rpc: %s parameter %d: %w", st.Name, i, err)
		}
		if a.Mode == bundle.Out && a.Type.Kind() == reflect.Ptr && target.IsNil() {
			target.Set(reflect.New(a.Type.Elem()))
		}
	}
	return nil
}

// DecodeArgs is DecodeInto for a caller that keeps the values: they sit in
// a frame of their own that is never released.
func (st *MethodStub) DecodeArgs(ctx *bundle.Ctx, s *xdr.Stream) ([]reflect.Value, error) {
	f := st.plan.Frame()
	if err := st.DecodeInto(ctx, s, f); err != nil {
		f.Release()
		return nil, err
	}
	return f.Args(), nil
}

// EncodeArgs bundles a call's arguments per the stub — used for local
// loopback tests and by typed client proxies that know the server spec.
func (st *MethodStub) EncodeArgs(ctx *bundle.Ctx, s *xdr.Stream, args []reflect.Value) error {
	if len(args) != len(st.Args) {
		return fmt.Errorf("rpc: %s takes %d parameters, got %d", st.Name, len(st.Args), len(args))
	}
	n := len(args)
	if err := s.Len(&n); err != nil {
		return err
	}
	for i := range st.Args {
		a := &st.Args[i]
		k := uint32(a.liveKind(ctx))
		if err := s.Uint32(&k); err != nil {
			return err
		}
		if err := a.Fn(ctx, s, args[i]); err != nil {
			return fmt.Errorf("rpc: %s parameter %d: %w", st.Name, i, err)
		}
	}
	return nil
}

// Call invokes the procedure on recv with the arguments in f, separating a
// trailing error result from the data results. ctx is injected as the
// first parameter of TakesCtx methods and ignored otherwise; a nil ctx
// means no deadline (context.Background is injected).
func (st *MethodStub) Call(ctx context.Context, recv reflect.Value, f *invoke.Frame) (rets []reflect.Value, appErr error) {
	if !st.TakesCtx {
		return f.Call(st.fn, recv)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return f.Call(st.fn, recv, reflect.ValueOf(ctx))
}

// Invoke is Call for arguments the caller holds as values.
func (st *MethodStub) Invoke(ctx context.Context, recv reflect.Value, args []reflect.Value) (rets []reflect.Value, appErr error) {
	f := st.plan.Frame()
	defer f.Release()
	f.Set(args)
	return st.Call(ctx, recv, f)
}

// EncodeReplyPayload bundles the out-parameters and results of a completed
// call: a count of out-parameters with their positions, then the results.
func (st *MethodStub) EncodeReplyPayload(ctx *bundle.Ctx, s *xdr.Stream, args, rets []reflect.Value) error {
	n := 0
	for i := range st.Args {
		if st.travelsBack(ctx, i) {
			n++
		}
	}
	if err := s.Len(&n); err != nil {
		return err
	}
	for i := range st.Args {
		if !st.travelsBack(ctx, i) {
			continue
		}
		idx := uint32(i)
		if err := s.Uint32(&idx); err != nil {
			return err
		}
		a := &st.Args[i]
		// Send the pointee, not the pointer: the caller already holds the
		// pointer; only the referenced data changed. A nil pointer (legal
		// for an In-ish caller) travels as an explicit absence flag.
		present := !args[i].IsNil()
		if err := s.Bool(&present); err != nil {
			return err
		}
		if !present {
			continue
		}
		k := uint32(a.ElemKind)
		if err := s.Uint32(&k); err != nil {
			return err
		}
		if err := a.ElemFn(ctx, s, args[i].Elem()); err != nil {
			return fmt.Errorf("rpc: %s out-parameter %d: %w", st.Name, i, err)
		}
	}
	rn := len(rets)
	if err := s.Len(&rn); err != nil {
		return err
	}
	for i, rv := range rets {
		a := &st.Rets[i]
		k := uint32(a.liveKind(ctx))
		if err := s.Uint32(&k); err != nil {
			return err
		}
		if err := a.Fn(ctx, s, rv); err != nil {
			return fmt.Errorf("rpc: %s result %d: %w", st.Name, i, err)
		}
	}
	return nil
}

// travelsBack reports whether parameter i's pointee is shipped back in the
// reply. Object handles and procedure descriptors never travel back as
// data, so they are excluded even when their declared mode is InOut.
func (st *MethodStub) travelsBack(ctx *bundle.Ctx, i int) bool {
	a := &st.Args[i]
	if a.Type.Kind() != reflect.Ptr || a.ElemFn == nil || a.liveKind(ctx) == KindHandle {
		return false
	}
	return a.Mode == bundle.Out || a.Mode == bundle.InOut
}
