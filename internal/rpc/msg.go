package rpc

import (
	"errors"
	"fmt"
	"reflect"

	"clam/internal/bundle"
	"clam/internal/handle"
	"clam/internal/xdr"
)

// Wire layouts for the bodies of the CLAM message types (the frame types
// themselves live in internal/wire).
//
// A MsgCall body is a batch: a call count followed by that many calls.
// "The CLAM RPC facility batches several asynchronous calls together into
// a single message" (§3.4); a call with Seq 0 is asynchronous and gets no
// reply, a call with a nonzero Seq is synchronous and is answered by a
// MsgReply carrying the same Seq.

// Status reports a call's fate.
type Status uint32

// Call statuses.
const (
	// StatusOK: the procedure ran; results follow.
	StatusOK Status = iota
	// StatusAppError: the procedure ran and returned an error.
	StatusAppError
	// StatusFault: the procedure crashed; the server caught the fault
	// (§4.3) and the class may be faulty.
	StatusFault
	// StatusDispatch: the call never reached a procedure (bad handle,
	// unknown method, argument mismatch).
	StatusDispatch
	// StatusDeadline: the call was shed without executing — its deadline
	// budget was already spent when a worker reached it, the caller
	// cancelled it, or admission control refused it under overload.
	StatusDeadline
)

// String names the status.
func (st Status) String() string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusAppError:
		return "application error"
	case StatusFault:
		return "fault in loaded class"
	case StatusDispatch:
		return "dispatch error"
	case StatusDeadline:
		return "deadline exceeded"
	default:
		return fmt.Sprintf("rpc.Status(%d)", uint32(st))
	}
}

// RemoteError is the client-side rendering of a non-OK reply.
type RemoteError struct {
	Status Status
	Msg    string
}

// Error renders the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Status, e.Msg)
}

// ErrTooManyCalls guards the batch count.
var ErrTooManyCalls = errors.New("rpc: batch call count exceeds limit")

// MaxBatch bounds the calls in one message.
const MaxBatch = 1 << 16

// CallHeader precedes each call's arguments in a batch.
type CallHeader struct {
	// Seq correlates the reply; 0 marks an asynchronous call.
	Seq uint64
	// Budget is the caller's remaining deadline budget in microseconds;
	// 0 means no deadline. Each hop anchors it to the frame's arrival
	// time, so the budget shrinks by real elapsed time (queue wait
	// included) as a call relays down a chain or across a mesh.
	Budget uint64
	// Obj names the target object. The nil handle addresses the server's
	// built-in root facilities.
	Obj handle.Handle
	// Method is the procedure name.
	Method string
}

// Bundle bidirectionally transfers the header.
func (h *CallHeader) Bundle(s *xdr.Stream) error {
	if s.Op() == xdr.Decode {
		method, err := h.DecodeInPlace(s)
		if err == nil {
			h.Method = string(method)
		}
		return err
	}
	h.fixed(s)
	return s.String(&h.Method)
}

// fixed transfers the fixed-width fields that precede the method name.
func (h *CallHeader) fixed(s *xdr.Stream) {
	s.Uint64(&h.Seq)
	s.Uint64(&h.Budget)
	h.Obj.Bundle(s)
}

// DecodeInPlace decodes the header without copying the method name: it is
// returned as a view into the frame body (valid only until the body is
// released) and h.Method is left alone. The dispatcher resolves the view
// with ClassStubs.Lookup, so a call costs no string unless it is forwarded.
func (h *CallHeader) DecodeInPlace(s *xdr.Stream) (method []byte, err error) {
	h.fixed(s)
	return s.StringView()
}

// DecodeBatchCount reads the count word that opens a MsgCall body,
// refusing a batch of more than MaxBatch calls.
func DecodeBatchCount(s *xdr.Stream) (int, error) {
	var count int
	if err := s.Len(&count); err != nil {
		return 0, err
	}
	if count > MaxBatch {
		return 0, fmt.Errorf("%w: %d", ErrTooManyCalls, count)
	}
	return count, nil
}

// ReplyHeader precedes a reply's payload.
type ReplyHeader struct {
	Status Status
	ErrMsg string
}

// Bundle bidirectionally transfers the header.
func (h *ReplyHeader) Bundle(s *xdr.Stream) error {
	st := uint32(h.Status)
	s.Uint32(&st)
	if s.Op() == xdr.Decode {
		h.Status = Status(st)
	}
	// The error message travels only on failure.
	if h.Status != StatusOK {
		return s.String(&h.ErrMsg)
	}
	return s.Err()
}

// Err converts a decoded header into an error, nil when OK.
func (h *ReplyHeader) Err() error {
	if h.Status == StatusOK {
		return nil
	}
	return &RemoteError{Status: h.Status, Msg: h.ErrMsg}
}

// UpcallHeader precedes a distributed upcall's arguments (§3.5.2): the
// client's procedure pointer travels as an opaque identifier that the
// client-side upcall stub maps back to the registered procedure.
type UpcallHeader struct {
	// ProcID is the client's procedure identifier, minted when the
	// procedure pointer was bundled down to the server.
	ProcID uint64
}

// Bundle bidirectionally transfers the header.
func (h *UpcallHeader) Bundle(s *xdr.Stream) error {
	return s.Uint64(&h.ProcID)
}

// EncodeFuncArgs bundles the arguments of an upcall (or any func-typed
// invocation) according to ft's parameter types, which is how the paper's
// compiler derives the upcall stubs: "The standard C++ syntax requires
// that the declaration of a procedure pointer include a specification of
// the type of each parameter ... The compiler uses this specification to
// generate the upcall stubs."
func EncodeFuncArgs(reg *bundle.Registry, ctx *bundle.Ctx, s *xdr.Stream, ft reflect.Type, args []reflect.Value) error {
	if len(args) != ft.NumIn() {
		return fmt.Errorf("rpc: upcall takes %d arguments, got %d", ft.NumIn(), len(args))
	}
	n := len(args)
	if err := s.Len(&n); err != nil {
		return err
	}
	for i, a := range args {
		if err := EncodeValue(reg, ctx, s, a); err != nil {
			return fmt.Errorf("rpc: upcall argument %d: %w", i, err)
		}
	}
	return nil
}

// DecodeFuncArgs unbundles upcall arguments into args, the settable cells
// of the procedure's call frame — one per parameter, so their types are
// the procedure's parameter types.
func DecodeFuncArgs(reg *bundle.Registry, ctx *bundle.Ctx, s *xdr.Stream, args []reflect.Value) error {
	var n int
	if err := s.Len(&n); err != nil {
		return err
	}
	if n != len(args) {
		return fmt.Errorf("rpc: upcall takes %d arguments, caller sent %d", len(args), n)
	}
	for i, target := range args {
		if err := DecodeValue(reg, ctx, s, target); err != nil {
			return fmt.Errorf("rpc: upcall argument %d: %w", i, err)
		}
	}
	return nil
}

// EncodeFuncResults bundles an upcall's reply: status, then the data
// results (rets excludes the procedure's trailing error, which is appErr).
func EncodeFuncResults(reg *bundle.Registry, ctx *bundle.Ctx, s *xdr.Stream, rets []reflect.Value, appErr error) error {
	hdr := ReplyHeader{}
	if appErr != nil {
		hdr.Status = StatusAppError
		hdr.ErrMsg = appErr.Error()
	}
	if err := hdr.Bundle(s); err != nil {
		return err
	}
	if appErr != nil {
		return nil
	}
	n := len(rets)
	if err := s.Len(&n); err != nil {
		return err
	}
	for i, rv := range rets {
		if err := EncodeValue(reg, ctx, s, rv); err != nil {
			return fmt.Errorf("rpc: upcall result %d: %w", i, err)
		}
	}
	return nil
}

// DecodeFuncResults unbundles an upcall's reply per ft's result types
// (read off ft one by one; a trailing error result is call status, not
// data), returning the data results and any application error the remote
// procedure reported.
func DecodeFuncResults(reg *bundle.Registry, ctx *bundle.Ctx, s *xdr.Stream, ft reflect.Type) ([]reflect.Value, error, error) {
	var hdr ReplyHeader
	if err := hdr.Bundle(s); err != nil {
		return nil, nil, err
	}
	if err := hdr.Err(); err != nil {
		return nil, err, nil
	}
	want := ft.NumOut()
	if want > 0 && ft.Out(want-1) == errType {
		want--
	}
	var n int
	if err := s.Len(&n); err != nil {
		return nil, nil, err
	}
	if n != want {
		return nil, nil, fmt.Errorf("rpc: upcall returns %d results, remote sent %d", want, n)
	}
	rets := make([]reflect.Value, n)
	for i := range rets {
		rets[i] = reflect.New(ft.Out(i)).Elem()
		if err := DecodeValue(reg, ctx, s, rets[i]); err != nil {
			return nil, nil, fmt.Errorf("rpc: upcall result %d: %w", i, err)
		}
	}
	return rets, nil, nil
}
