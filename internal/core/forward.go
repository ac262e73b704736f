package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"clam/internal/bundle"
	"clam/internal/handle"
	"clam/internal/rpc"
	"clam/internal/wire"
	"clam/internal/xdr"
)

// Multi-hop forwarding: a CLAM server dialing a lower CLAM server as an
// ordinary client, so abstractions layer across N address spaces rather
// than the paper's two. The paper already contains every ingredient — a
// layer "may live in another address space" (§1), handles are opaque
// capabilities (§3.5.1), procedure pointers translate per hop through RUC
// objects (§3.5.2) — and the symmetric endpoint engine makes the middle
// process simply both roles at once:
//
//	top client ──calls──▶ middle server ──calls──▶ bottom server
//	top client ◀─upcalls── middle server ◀─upcalls── bottom server
//
// Downward, a *Remote the middle tier holds for a lower server's object is
// re-exported upward as a proxy entry in the middle's handle table (same
// {class id, version, tag} semantics; revoking the proxy invalidates the
// upper handle without touching the lower one). A call on a proxy handle
// is relayed down over the upstream client connection. Upward, a procedure
// pointer from the top client is bound into the middle's RUC table and
// re-registered down as a fresh procedure pointer, so an upcall from the
// bottom chains hop by hop back to the top — each hop translating ids it
// minted itself, exactly as §3.5.2 prescribes for one hop.

// The hop state itself — peerLink, its breaker, the per-link translation
// cache — lives in peerlink.go, shared between this vertical chain
// arrangement and the horizontal mesh (mesh.go).

// proxyClass is the middle tier's knowledge of one lower-server class: its
// portable identity and the stubs compiled from the local library's class
// of the same name, which drive argument decoding for forwarded calls.
type proxyClass struct {
	name    string
	version uint32
	stubs   *rpc.ClassStubs
}

// relayCaller is the ruc.Caller identity under which forwarded procedure
// pointers are bound: the same per-session upcall path, plus the per-hop
// relay counter. A distinct identity also lets dropSession clear forwarded
// bindings separately from the client's own.
type relayCaller struct {
	sess *session
}

// Upcall relays an upcall arriving from a lower server on toward this
// server's client.
func (rc *relayCaller) Upcall(procID uint64, ft reflect.Type, args []reflect.Value) ([]reflect.Value, error) {
	rc.sess.srv.metrics.countRelayedUpcall()
	return rc.sess.Upcall(procID, ft, args)
}

// DialUpstream connects this server to a lower CLAM server and registers
// the connection for forwarding: objects imported from it (ImportNamed, or
// received as call results) can be re-exported to this server's clients,
// and calls on those proxies relay down. The returned client is the
// server's ordinary client connection to the lower tier — usable directly
// for bootstrap (loading classes below, importing named objects).
func (s *Server) DialUpstream(network, addr string, opts ...DialOption) (*Client, error) {
	c, err := Dial(network, addr, opts...)
	if err != nil {
		return nil, err
	}
	if err := s.AttachUpstream(c); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// AttachUpstream registers an already-dialed client connection to a lower
// server for forwarding. Idempotent per client. The server owns the client
// from here on and closes it on shutdown.
func (s *Server) AttachUpstream(c *Client) error {
	_, err := s.attachLink(c, linkChain, "")
	return err
}

// ImportNamed pulls named objects from an upstream server and republishes
// them under the same names here, so this server's clients find lower-tier
// base abstractions exactly as they would local ones.
func (s *Server) ImportNamed(c *Client, names ...string) error {
	if pl := s.linkFor(c); pl == nil {
		return errors.New("clam: client is not an attached upstream")
	}
	for _, name := range names {
		r, err := c.NamedObject(name)
		if err != nil {
			return fmt.Errorf("clam: importing %q: %w", name, err)
		}
		s.SetNamed(name, r)
	}
	return nil
}

// exportProxy re-exports a lower server's object upward: the *Remote
// itself becomes the handle-table entry, carrying the lower server's class
// identity. Re-exporting the same Remote is stable (same handle), and
// revocation semantics are the table's own (§3.5.1).
func (s *Server) exportProxy(r *Remote) (handle.Handle, error) {
	if err := r.ensureClass(); err != nil {
		return handle.Nil, fmt.Errorf("clam: resolving proxied object's class: %w", err)
	}
	classID, version := r.classInfo()
	return s.handles.Put(r, classID, version)
}

// isProxyableClassPtr reports whether t is a type whose values cross hops
// as handles: *Remote itself, or a pointer to a class instance struct
// known to this server (loaded, or merely registered in the library —
// forwarding must recognize classes it never instantiates locally).
func (s *Server) isProxyableClassPtr(t reflect.Type) bool {
	if t == reflect.PtrTo(remoteStructType) {
		return true
	}
	if t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
		return false
	}
	return s.loader.IsClassType(t.Elem()) || s.lib.HasType(t)
}

// isStaleHandleErr recognizes a lower server's report that the proxied
// handle is no longer valid (revoked below), so the proxy entry above is
// revoked too — tag-mismatch semantics propagate up the chain.
func isStaleHandleErr(err error) bool {
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Status != rpc.StatusDispatch {
		return false
	}
	return strings.Contains(re.Msg, handle.ErrStale.Error()) ||
		strings.Contains(re.Msg, handle.ErrUnknown.Error())
}

// --- forwarded call execution ----------------------------------------------

// replyStatus answers a synchronous call with a bare status header.
func (sess *session) replyStatus(seq uint64, status rpc.Status, msg string) {
	if seq == 0 {
		return
	}
	sc := rpc.GetScratch()
	defer sc.Release()
	rh := rpc.ReplyHeader{Status: status, ErrMsg: msg}
	if err := rh.Bundle(sc.Encoder()); err != nil {
		return
	}
	sess.queueReplyFrame(wire.MsgReply, seq, sc.Bytes())
}

// execForward relays one call on a proxy handle down to the lower server
// that owns the real object. The batch decoder is mid-stream, so any
// decode failure must poison it (SetErr) to drop the rest of the batch.
// arrived anchors the call's deadline budget (§6.8): the relay context
// carries the remaining budget downstream, so each hop decrements it by
// the real time spent here, and a MsgCancel from above cancels the relay
// mid-flight — which in turn ships a MsgCancel down the chain.
func (sess *session) execForward(dec *xdr.Stream, hdr *rpc.CallHeader, pr *Remote, entry handle.Entry, arrived int64) {
	srv := sess.srv
	pl := srv.linkFor(pr.c)
	if pl == nil {
		dec.SetErr(fmt.Errorf("clam: proxy call %s on detached peer link", hdr.Method))
		sess.replyStatus(hdr.Seq, rpc.StatusDispatch, "clam: peer connection is gone")
		return
	}
	pc, err := srv.proxyClassFor(pl, entry.ClassID, entry.Version)
	if err != nil {
		dec.SetErr(err)
		sess.replyStatus(hdr.Seq, rpc.StatusDispatch, err.Error())
		return
	}
	stub, err := pc.stubs.Method(hdr.Method)
	if err != nil {
		dec.SetErr(fmt.Errorf("clam: undecodable proxy call %s", hdr.Method))
		sess.replyStatus(hdr.Seq, rpc.StatusDispatch, err.Error())
		return
	}

	args, err := sess.decodeForwardArgs(dec, stub, pr)
	if err != nil {
		dec.SetErr(err)
		sess.replyStatus(hdr.Seq, rpc.StatusDispatch, err.Error())
		return
	}

	if (pl.br != nil && pl.br.open()) || (pl.role == linkMesh && !srv.meshPeerUp(pl)) {
		// The peer's circuit is open (or the mesh directory marks it down):
		// fail fast rather than relay into a link the resurrect loop has
		// given up on for now. The args are already decoded — stub lookup is
		// local once the class is cached — so the batch stream stays aligned
		// and EVERY refused call is answered, not just the batch's first.
		// Sync calls get a dispatch error; asyncs follow the async error
		// path (fault report), matching a relay failure. Mesh peers fail
		// with ErrPeerDown so callers can tell a dead shard owner from an
		// application error.
		msg := "clam: upstream circuit open"
		if pl.role == linkMesh {
			msg = ErrPeerDown.Error() + ": " + pl.name
			srv.metrics.meshPeerDown.Add(1)
		}
		if hdr.Seq == 0 {
			sess.reportFault("proxy", hdr.Method, msg)
		} else {
			sess.replyStatus(hdr.Seq, rpc.StatusDispatch, msg)
		}
		return
	}

	// Shed points (§6.8): a cancelled or budget-spent call is refused here,
	// AFTER args are decoded — the batch stream stays aligned — and BEFORE
	// the relay ties up a round trip on the lower server.
	if hdr.Seq != 0 && sess.takeCancel(hdr.Seq) {
		srv.metrics.shedCancelled.Add(1)
		sess.fail(hdr.Seq, "", hdr.Method, rpc.StatusDeadline, "cancelled by caller")
		return
	}
	if hdr.Budget != 0 && srv.shedExpired() && budgetSpent(hdr.Budget, arrived) {
		srv.metrics.shedExpired.Add(1)
		sess.fail(hdr.Seq, "", hdr.Method, rpc.StatusDeadline, "deadline budget spent before relay")
		return
	}

	srv.metrics.countRelayedCall()
	srv.metrics.countCall(hdr.Seq != 0)
	stub.Calls.Add(1)

	if hdr.Seq == 0 {
		// Asynchronous: relay asynchronously, keeping §3.4's batching
		// across the hop. The client's Sync is relayed too (syncUpstreams),
		// preserving the completion guarantee end to end. Failures follow
		// the async error path: a fault report upcall.
		if err := pr.c.async(pr.h, hdr.Method, args); err != nil {
			sess.reportFault(pc.name, hdr.Method, err.Error())
		}
		return
	}

	// Synchronous: build result targets, relay, and re-encode the answer
	// upward. Class-typed results come back as *Remote proxies; everything
	// else round-trips as data.
	rets := make([]any, len(stub.Rets))
	proxied := make([]bool, len(stub.Rets))
	for i := range stub.Rets {
		rt := stub.Rets[i].Type
		switch {
		case srv.isProxyableClassPtr(rt):
			rets[i] = new(*Remote)
			proxied[i] = true
		case rt.Kind() == reflect.Func:
			sess.replyStatus(hdr.Seq, rpc.StatusDispatch,
				fmt.Sprintf("clam: cannot forward procedure-pointer result of %s", hdr.Method))
			return
		default:
			rets[i] = reflect.New(rt).Interface()
		}
	}

	// The relay context threads the budget and cancellation down the hop:
	// a deadline anchored at this frame's arrival (so the next hop sees
	// the budget minus time spent here), or a bare cancelable context when
	// the caller sent no budget but could still ship a MsgCancel. Either
	// way callOnce turns ctx expiry/cancel into a MsgCancel downstream.
	relayCtx := context.Background()
	if hdr.Budget != 0 || hdr.Seq != 0 {
		var cancel context.CancelFunc
		if hdr.Budget != 0 {
			deadline := time.Unix(0, arrived).Add(time.Duration(hdr.Budget) * time.Microsecond)
			relayCtx, cancel = context.WithDeadline(context.Background(), deadline)
		} else {
			relayCtx, cancel = context.WithCancel(context.Background())
		}
		if hdr.Seq != 0 {
			sess.registerLive(hdr.Seq, cancel)
			defer sess.unregisterLive(hdr.Seq)
		}
		defer cancel()
	}

	// The relay waits a full round trip on the lower server; an executor
	// worker releases its slot meanwhile so this session's other lanes keep
	// draining (no-op under the serial dispatcher, whose block hook hands
	// off the same way when callRetry's wait blocks the task).
	xit := srv.exec.yieldCurrent()
	err = pr.c.callRetry(relayCtx, pr.h, hdr.Method, rets, args, false)
	srv.exec.resume(xit)
	if err != nil {
		if isStaleHandleErr(err) {
			// The lower server revoked the real object: revoke our proxy so
			// the upper handle dies with it.
			srv.revokeHandleObj(pr)
		}
		status, msg := rpc.StatusDispatch, err.Error()
		if errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// Deadline or cancel surfaced by the hop below (or by our own
			// relay context): report it upward as what it is, so the whole
			// chain answers StatusDeadline, not a generic dispatch failure.
			status = rpc.StatusDeadline
		} else {
			var re *rpc.RemoteError
			if errors.As(err, &re) {
				status, msg = re.Status, re.Msg
			}
		}
		sess.replyStatus(hdr.Seq, status, msg)
		return
	}
	sess.replyForward(hdr.Seq, stub, args, rets, proxied)
}

// decodeForwardArgs walks a forwarded call's arguments by the kind word
// each one carries — the self-describing wire is what makes generic
// forwarding possible without the lower class loaded locally. Handles are
// translated through this server's table (must name proxies of the same
// upstream); procedure pointers are re-bound through the RUC table under
// the session's relay identity; data decodes by the stub's compiled
// bundlers.
func (sess *session) decodeForwardArgs(dec *xdr.Stream, stub *rpc.MethodStub, pr *Remote) (args []any, err error) {
	srv := sess.srv
	var argc int
	if err := dec.Len(&argc); err != nil {
		return nil, err
	}
	if argc != len(stub.Args) {
		return nil, fmt.Errorf("rpc: %s takes %d parameters, caller sent %d", stub.Name, len(stub.Args), argc)
	}
	args = make([]any, argc)
	ctx := sess.ctx()
	for i := range stub.Args {
		a := &stub.Args[i]
		var got uint32
		if err := dec.Uint32(&got); err != nil {
			return nil, err
		}
		switch rpc.Kind(got) {
		case rpc.KindHandle:
			var hd handle.Handle
			if err := hd.Bundle(dec); err != nil {
				return nil, err
			}
			if hd.IsNil() {
				args[i] = (*Remote)(nil)
				continue
			}
			ent, err := srv.handles.Entry(hd)
			if err != nil {
				return nil, err
			}
			inner, ok := ent.Obj.(*Remote)
			if !ok {
				return nil, fmt.Errorf("clam: parameter %d of %s names a local object; it cannot descend to the lower server", i, stub.Name)
			}
			if inner.c != pr.c {
				return nil, fmt.Errorf("clam: parameter %d of %s names an object on a different upstream", i, stub.Name)
			}
			args[i] = inner
		case rpc.KindProc:
			var procID uint64
			if err := dec.Uint64(&procID); err != nil {
				return nil, err
			}
			ft := a.Type
			if ft.Kind() != reflect.Func {
				return nil, fmt.Errorf("clam: parameter %d of %s is %s, caller sent a procedure", i, stub.Name, ft)
			}
			if procID == 0 {
				args[i] = reflect.Zero(ft).Interface()
				continue
			}
			_, proxy, err := srv.rucs.Bind(procID, ft, sess.relay)
			if err != nil {
				return nil, err
			}
			args[i] = proxy.Interface()
		default:
			want := a.Kind
			if rpc.Kind(got) != want {
				return nil, fmt.Errorf("%w: got %s, want %s (%s parameter %d)",
					rpc.ErrKindMismatch, rpc.Kind(got), want, stub.Name, i)
			}
			target := reflect.New(a.Type).Elem()
			if err := a.Fn(ctx, dec, target); err != nil {
				return nil, fmt.Errorf("rpc: %s parameter %d: %w", stub.Name, i, err)
			}
			if a.Type.Kind() == reflect.Ptr && a.ElemFn != nil &&
				target.IsNil() && a.Mode == bundle.Out {
				target.Set(reflect.New(a.Type.Elem()))
			}
			args[i] = target.Interface()
		}
	}
	return args, nil
}

// replyForward hand-encodes a forwarded call's reply in the standard
// layout (out-parameter triples, then tagged results), minting proxy
// handles for class-typed results.
func (sess *session) replyForward(seq uint64, stub *rpc.MethodStub, args []any, rets []any, proxied []bool) {
	srv := sess.srv
	sc := rpc.GetScratch()
	defer sc.Release()
	enc := sc.Encoder()
	rh := rpc.ReplyHeader{Status: rpc.StatusOK}
	if err := rh.Bundle(enc); err != nil {
		return
	}
	ctx := sess.ctx()

	// Out-parameters: recount which data-pointer args travel back (same
	// rule as the stub's own reply path).
	var outs []int
	for i := range stub.Args {
		a := &stub.Args[i]
		if a.Type.Kind() != reflect.Ptr || a.ElemFn == nil {
			continue
		}
		if _, isProxy := args[i].(*Remote); isProxy {
			continue
		}
		if a.Mode == bundle.Out || a.Mode == bundle.InOut {
			outs = append(outs, i)
		}
	}
	n := len(outs)
	if err := enc.Len(&n); err != nil {
		return
	}
	for _, i := range outs {
		a := &stub.Args[i]
		idx := uint32(i)
		if err := enc.Uint32(&idx); err != nil {
			return
		}
		av := reflect.ValueOf(args[i])
		present := !av.IsNil()
		if err := enc.Bool(&present); err != nil {
			return
		}
		if !present {
			continue
		}
		k := uint32(a.ElemKind)
		if err := enc.Uint32(&k); err != nil {
			return
		}
		if err := a.ElemFn(ctx, enc, av.Elem()); err != nil {
			sess.replyStatus(seq, rpc.StatusDispatch, err.Error())
			return
		}
	}

	rn := len(rets)
	if err := enc.Len(&rn); err != nil {
		return
	}
	for i := range rets {
		if proxied[i] {
			k := uint32(rpc.KindHandle)
			if err := enc.Uint32(&k); err != nil {
				return
			}
			hd := handle.Nil
			if r := *(rets[i].(**Remote)); r != nil {
				var err error
				hd, err = srv.exportProxy(r)
				if err != nil {
					sess.replyStatus(seq, rpc.StatusDispatch, err.Error())
					return
				}
			}
			if err := hd.Bundle(enc); err != nil {
				return
			}
			continue
		}
		a := &stub.Rets[i]
		k := uint32(a.Kind)
		if err := enc.Uint32(&k); err != nil {
			return
		}
		if err := a.Fn(ctx, enc, reflect.ValueOf(rets[i]).Elem()); err != nil {
			sess.replyStatus(seq, rpc.StatusDispatch, err.Error())
			return
		}
	}
	sess.queueReplyFrame(wire.MsgReply, seq, sc.Bytes())
}
