package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/bundle"
	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/rpc"
	"clam/internal/task"
	"clam/internal/wire"
	"clam/internal/xdr"
)

// session is the server side of one client connection pair: the
// upward-facing role wrapper over the shared endpoint engine. It owns the
// RPC channel it was created with and the upcall channel that attaches
// later (§4.4). Incoming call batches are executed in order by a
// dispatcher task; when a handler blocks in a distributed upcall,
// dispatching is handed to a fresh task so the server keeps serving — in
// particular the reentrant case where the client's upcall handler calls
// back into the server. The embedded endpoint carries the seq/wait table
// (here numbering upcalls), reply coalescing, heartbeats and teardown;
// the session adds dispatch, the upcall gate, and the load protocol.
type session struct {
	endpoint

	id  uint64
	srv *Server

	// The upcall gate bounds concurrent distributed upcalls per client:
	// "we allow only one upcall to be active per client process. This
	// limitation simplifies our first implementation and may be relaxed
	// in future designs" (§4.4). The bound defaults to 1 (the paper's
	// design) and is raised by core.WithMaxClientUpcalls — the paper's
	// anticipated relaxation. It is NOT a plain mutex: a task that
	// blocked waiting for the gate while holding the scheduler's run
	// token would freeze every task, including the one that will release
	// the gate. Task waiters therefore Block on upFree (releasing the
	// token); plain goroutines wait on upFreeCh.
	gateMu   sync.Mutex // guards upBusy
	upBusy   int
	upMax    int
	upFree   task.Event
	upFreeCh chan struct{}

	// call-batch queue drained by dispatcher tasks. owner is the task
	// currently holding dispatch duty; both fields are guarded by qMu.
	qMu         sync.Mutex
	queue       msgQueue
	dispatching bool
	owner       *task.Task

	// slowFails counts consecutive failed upcalls for the slow-consumer
	// guard; evicting makes eviction once-only.
	slowFails atomic.Int32
	evicting  atomic.Bool

	// fromPeer marks a session whose client is another mesh member's peer
	// link (set by MeshClass.Announce). Its Syncs relay only down chain
	// links: mesh edges form cycles, so a Sync crosses each at most once
	// — the member that received the client's Sync relays it mesh-wide,
	// and members receiving that relay stop (mesh.go).
	fromPeer atomic.Bool

	// Per-object executor bookkeeping (executor.go); all three references
	// are guarded by the server executor's mutex, never qMu. execActive
	// counts this session's in-flight items for reply coalescing: the last
	// finisher flushes the burst's buffered replies in one write.
	execItems     map[*dispatchItem]struct{}
	execBarrier   *dispatchItem // latest incomplete MsgLoad/MsgSync
	execLastAsync *dispatchItem // latest incomplete async single call
	execActive    atomic.Int64

	// relay is the ruc.Caller identity under which forwarded procedure
	// pointers are bound (see forward.go): same upcall path, but each hop
	// crossed is counted.
	relay *relayCaller

	// Session-resurrection state. token is the durable identity granted at
	// hello when the server runs with WithResumeWindow (zero otherwise);
	// epoch counts successful resumes; parked marks a session whose links
	// died but whose state — handle table entries, RUC registrations, the
	// receive window — is retained until parkTimer fires. epoch, parked
	// and parkTimer are guarded by the endpoint's resMu; recvSeq is the
	// highest numbered MsgCall frame received, read/written only by the
	// (single) RPC read loop and reported to a resuming client.
	token     uint64
	epoch     uint32
	parked    bool
	parkTimer *time.Timer
	recvSeq   atomic.Uint64

	// Journaled receive high-water mark (journal.go). The per-object
	// executor completes frames out of order, but a durable mark must mean
	// "everything at or below executed", so completions above the
	// contiguous frontier wait in markAbove until the gap fills. Only
	// touched when the server journals.
	markMu    sync.Mutex
	markHW    uint64
	markAbove map[uint64]struct{}

	// Cancellation state (DESIGN.md §6.8). cancelSet holds call seqs the
	// client abandoned (MsgCancel) that have not yet reached a worker —
	// the dispatcher consumes an entry and sheds the call instead of
	// executing it. liveCalls maps a running budgeted call's seq to its
	// context's cancel func, so a cancel arriving mid-execution interrupts
	// the handler. cancelN gates the maps with one atomic load: a session
	// that never sees a cancel pays nothing per call.
	cancelMu  sync.Mutex
	cancelSet map[uint64]struct{}
	liveCalls map[uint64]context.CancelFunc
	cancelN   atomic.Int64

	// bctx is the session's bundling context, built once in newSession:
	// the hooks are typed views of the session and Ctx carries no per-call
	// state (the no-global-state bundler rule, §3.3, is about registries,
	// not contexts), so every encode/decode shares this instance.
	bctx bundle.Ctx
}

// maxCancelSet bounds the remembered-cancel set: past it the oldest
// entries are dropped (the call then executes — cancels are advisory).
const maxCancelSet = 4096

// noteCancels records a MsgCancel's call seqs: running calls are
// interrupted through their context; queued ones are remembered for the
// dispatcher to shed.
func (sess *session) noteCancels(seqs []uint64) {
	m := sess.srv.metrics
	sess.cancelMu.Lock()
	for _, seq := range seqs {
		m.cancelsRecv.Add(1)
		if cancel, ok := sess.liveCalls[seq]; ok {
			cancel()
			delete(sess.liveCalls, seq)
			sess.cancelN.Add(-1)
			m.handlerCancels.Add(1)
			continue
		}
		if sess.cancelSet == nil {
			sess.cancelSet = make(map[uint64]struct{})
		}
		if len(sess.cancelSet) >= maxCancelSet {
			for victim := range sess.cancelSet {
				delete(sess.cancelSet, victim)
				sess.cancelN.Add(-1)
				break
			}
		}
		if _, dup := sess.cancelSet[seq]; !dup {
			sess.cancelSet[seq] = struct{}{}
			sess.cancelN.Add(1)
		}
	}
	sess.cancelMu.Unlock()
}

// takeCancel consumes a remembered cancel for seq, reporting whether the
// call should be shed. The atomic gate keeps the common no-cancels case
// to one load, off every dispatch's lock path.
func (sess *session) takeCancel(seq uint64) bool {
	if sess.cancelN.Load() == 0 {
		return false
	}
	sess.cancelMu.Lock()
	_, ok := sess.cancelSet[seq]
	if ok {
		delete(sess.cancelSet, seq)
		sess.cancelN.Add(-1)
	}
	sess.cancelMu.Unlock()
	return ok
}

// registerLive exposes a running budgeted call's cancel func to
// noteCancels; unregisterLive retracts it after the handler returns.
func (sess *session) registerLive(seq uint64, cancel context.CancelFunc) {
	sess.cancelMu.Lock()
	if sess.liveCalls == nil {
		sess.liveCalls = make(map[uint64]context.CancelFunc)
	}
	sess.liveCalls[seq] = cancel
	sess.cancelN.Add(1)
	sess.cancelMu.Unlock()
}

func (sess *session) unregisterLive(seq uint64) {
	sess.cancelMu.Lock()
	if _, ok := sess.liveCalls[seq]; ok {
		delete(sess.liveCalls, seq)
		sess.cancelN.Add(-1)
	}
	sess.cancelMu.Unlock()
}

func newSession(srv *Server, id uint64, rpcConn *wire.Conn) *session {
	sess := &session{
		id:       id,
		srv:      srv,
		upMax:    srv.maxClientUpcalls,
		upFreeCh: make(chan struct{}, 1),
	}
	if srv.exec != nil {
		sess.execItems = make(map[*dispatchItem]struct{})
	}
	if srv.resumeWindow > 0 {
		sess.token = mintToken()
	}
	e := &sess.endpoint
	e.setRPCConn(rpcConn)
	e.reg = srv.reg
	e.mkCtx = sess.ctx
	e.callTimeout = srv.upcallTimeout
	e.hbInterval = srv.hbInterval
	e.hbWindow = srv.hbWindow
	e.link = &srv.metrics.link
	e.closedCh = make(chan struct{})
	e.logf = srv.logf
	e.lastRPC.Store(time.Now().UnixNano())
	sess.bctx = bundle.Ctx{
		Objects: (*serverObjectHook)(sess),
		Procs:   (*serverProcHook)(sess),
	}
	sess.relay = &relayCaller{sess: sess}
	return sess
}

// acquireUpcallGate claims an active-upcall slot, waiting in a token-safe
// way. It returns false if the session closed first.
func (sess *session) acquireUpcallGate(cur *task.Task) bool {
	// One reusable timer for the goroutine-waiter branch: a contended gate
	// spins here many times, and a fresh time.After per spin would leave a
	// garbage timer behind each pass.
	var gateTimer *time.Timer
	defer func() {
		if gateTimer != nil {
			gateTimer.Stop()
		}
	}()
	for {
		sess.gateMu.Lock()
		if sess.upBusy < sess.upMax {
			sess.upBusy++
			sess.gateMu.Unlock()
			return true
		}
		sess.gateMu.Unlock()
		select {
		case <-sess.closedCh:
			return false
		default:
		}
		if cur != nil {
			// Hand off dispatch duty first: the gate holder may need a
			// fresh dispatcher (reentrant client call) to finish.
			sess.releaseDispatch()
			cur.Block(&sess.upFree)
		} else {
			if gateTimer == nil {
				gateTimer = time.NewTimer(50 * time.Millisecond)
			} else {
				gateTimer.Reset(50 * time.Millisecond)
			}
			select {
			case <-sess.upFreeCh:
			case <-sess.closedCh:
				return false
			case <-gateTimer.C:
				// Re-check: the release signal may have gone to a task.
			}
			if !gateTimer.Stop() {
				select {
				case <-gateTimer.C:
				default:
				}
			}
		}
	}
}

// releaseUpcallGate frees the slot and wakes one waiter of each kind.
func (sess *session) releaseUpcallGate() {
	sess.gateMu.Lock()
	sess.upBusy--
	sess.gateMu.Unlock()
	// Signal is counting, so a release that precedes the next waiter's
	// Block is not lost.
	sess.upFree.Signal()
	select {
	case sess.upFreeCh <- struct{}{}:
	default:
	}
}

// attachUpcallConn binds the client's second channel. It may be attached
// once.
func (sess *session) attachUpcallConn(c *wire.Conn) bool {
	return sess.attachUpcall(c)
}

// upcallConnLost runs when the upcall channel's read loop exits: any task
// parked on an upcall reply will never get one, so fail the waits now
// rather than letting them ride out the upcall timeout.
func (sess *session) upcallConnLost() {
	sess.waits.cancelAll()
}

func (sess *session) close() {
	sess.shutdown(false)
}

// --- session resurrection (server side) -------------------------------------

// park retains the session after its RPC link died instead of dropping it:
// the handle table entries, RUC registrations and receive window survive
// for the resume window, awaiting a reconnect that presents the token.
// Reports false when the session is not resumable (no grant, mid-eviction,
// already closed) — the caller then takes the legacy drop path.
func (sess *session) park() bool {
	if sess.token == 0 || sess.srv.resumeWindow <= 0 || sess.evicting.Load() || sess.byeSeen.Load() {
		return false
	}
	sess.resMu.Lock()
	select {
	case <-sess.closedCh:
		sess.resMu.Unlock()
		return false
	default:
	}
	sess.parked = true
	sess.linkDown.Store(true)
	// Close both channels: the client is gone, and the upcall read loop
	// should exit rather than linger on a half-dead pair.
	sess.rpcConn().Close()
	if up := sess.upcallConn(); up != nil {
		up.Close()
	}
	if sess.parkTimer != nil {
		sess.parkTimer.Stop()
	}
	sess.parkTimer = time.AfterFunc(sess.srv.resumeWindow, sess.expireIfParked)
	sess.resMu.Unlock()
	// Upcalls in flight toward the dead link fail now, not at timeout.
	sess.waits.cancelAll()
	sess.srv.logf("clam: session %d: link lost; parked for %v awaiting resume", sess.id, sess.srv.resumeWindow)
	return true
}

// expireIfParked evicts a session still parked when its window closes.
func (sess *session) expireIfParked() {
	sess.resMu.Lock()
	expired := sess.parked
	sess.resMu.Unlock()
	if !expired {
		return
	}
	select {
	case <-sess.closedCh:
		return
	default:
	}
	sess.evict("resume window expired")
}

// resumeRPC re-pairs a fresh RPC connection with this parked session. On
// success it returns the new epoch and the receive high-water mark to
// report to the client. retry=true asks the client to try again shortly
// (the old read loop has not parked the session yet).
func (sess *session) resumeRPC(c *wire.Conn, epoch uint32) (newEpoch uint32, recvSeq uint64, retry bool, err error) {
	sess.resMu.Lock()
	defer sess.resMu.Unlock()
	select {
	case <-sess.closedCh:
		return 0, 0, false, errors.New("clam: session closed")
	default:
	}
	if sess.evicting.Load() {
		return 0, 0, false, errors.New("clam: session evicted")
	}
	if !sess.parked {
		// The dead link's read loop has not returned yet (it parks the
		// session on exit). Kick the old connection so it does, and have
		// the client retry after a backoff.
		sess.rpcConn().Close()
		return 0, 0, true, errors.New("clam: session not yet parked; retry")
	}
	if epoch != sess.epoch {
		return 0, 0, false, fmt.Errorf("clam: resume epoch %d, session at %d", epoch, sess.epoch)
	}
	sess.epoch++
	sess.parked = false
	if sess.parkTimer != nil {
		sess.parkTimer.Stop()
		sess.parkTimer = nil
	}
	sess.setRPCConn(c)
	// Stamp both channels live: the upcall channel re-attaches moments
	// from now, and the heartbeat must not evict in the gap.
	now := time.Now().UnixNano()
	sess.lastRPC.Store(now)
	sess.lastUp.Store(now)
	sess.linkDown.Store(false)
	return sess.epoch, sess.recvSeq.Load(), false, nil
}

// linkIsDown reports whether the session is parked with its links
// severed, awaiting resurrection. Fan-out drains consult it to stand
// down instead of burning queued events against a dead link.
func (sess *session) linkIsDown() bool { return sess.linkDown.Load() }

// resumeUpcall re-attaches the upcall channel after a successful RPC-side
// resume; epoch must match the generation resumeRPC just minted.
func (sess *session) resumeUpcall(c *wire.Conn, epoch uint32) error {
	sess.resMu.Lock()
	defer sess.resMu.Unlock()
	select {
	case <-sess.closedCh:
		return errors.New("clam: session closed")
	default:
	}
	if epoch != sess.epoch {
		return fmt.Errorf("clam: resume epoch %d, session at %d", epoch, sess.epoch)
	}
	sess.replaceUpcall(c)
	return nil
}

// ctx returns the session's shared bundling context (see bctx).
func (sess *session) ctx() *bundle.Ctx {
	return &sess.bctx
}

// --- read loops -----------------------------------------------------------

// rpcReadLoop receives messages on the RPC channel and queues work for the
// dispatcher. It returns when the connection drops.
func (sess *session) rpcReadLoop(conn *wire.Conn) {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		now := time.Now().UnixNano()
		sess.lastRPC.Store(now)
		switch msg.Type {
		case wire.MsgCancel:
			// The caller abandoned the named calls: cancel any that are
			// running, remember the rest so the dispatcher sheds them.
			if seqs, err := wire.ParseCancelBody(msg.Body); err == nil {
				sess.noteCancels(seqs)
			} else {
				sess.srv.logf("clam: session %d: %v", sess.id, err)
			}
			msg.Release()
		case wire.MsgCall, wire.MsgLoad, wire.MsgSync:
			if msg.Type == wire.MsgCall && msg.Seq != 0 {
				// Numbered batch from a resume-granted client. A frame at
				// or below the high-water mark is a replay of something
				// already executed (a duplicate a resuming client could
				// not avoid sending): drop it, which is the server half of
				// the at-most-once argument (DESIGN.md §6.3). The single
				// reader owns recvSeq, so load-then-store is safe.
				if msg.Seq <= sess.recvSeq.Load() {
					sess.link.dedups.Add(1)
					msg.Release()
					continue
				}
				sess.recvSeq.Store(msg.Seq)
			}
			// Budget anchoring: the call's remaining deadline is measured
			// from this read, so queue wait counts against the caller.
			msg.Arrived = now
			if sess.srv.maxQueueDelay > 0 {
				if sess.admitCall(msg) {
					continue // refused at admission; msg already released
				}
				if msg.Type == wire.MsgCall {
					sess.srv.metrics.pendingFrames.Add(1)
				}
			}
			// The dispatcher owns the message now; it releases it after
			// executing it.
			if x := sess.srv.exec; x != nil {
				x.enqueue(sess, msg)
			} else {
				sess.enqueue(msg)
			}
		default:
			if handled, stop := sess.demuxCommon(conn, msg); handled {
				if stop {
					return
				}
				continue
			}
			sess.srv.logf("clam: session %d: unexpected %v on rpc channel", sess.id, msg.Type)
			msg.Release()
		}
	}
}

// upcallReadLoop receives upcall replies on the upcall channel.
func (sess *session) upcallReadLoop(c *wire.Conn) {
	for {
		msg, err := c.Recv()
		if err != nil {
			return
		}
		sess.lastUp.Store(time.Now().UnixNano())
		switch msg.Type {
		case wire.MsgUpcallReply:
			// A delivered reply is owned (and released) by the waiting
			// upcaller; an unclaimed one — late reply after a timeout — is
			// recycled here.
			if !sess.waits.deliver(msg.Seq, msg, false) {
				msg.Release()
			}
		default:
			if handled, stop := sess.demuxCommon(c, msg); handled {
				if stop {
					return
				}
				continue
			}
			sess.srv.logf("clam: session %d: unexpected %v on upcall channel", sess.id, msg.Type)
			msg.Release()
		}
	}
}

// --- liveness ---------------------------------------------------------------

// startHeartbeat launches the per-session liveness loop if the server was
// configured with WithHeartbeat: the shared endpoint heartbeat, with
// linkSilent as this role's response to a dead peer.
func (sess *session) startHeartbeat() {
	if sess.hbInterval <= 0 {
		return
	}
	sess.srv.wg.Add(1)
	go func() {
		defer sess.srv.wg.Done()
		sess.heartbeatLoop(sess.linkSilent)
	}()
}

// linkSilent is the session's response to a missed liveness window. With
// a resume grant, silence is indistinguishable from link loss — a network
// partition, not a dead client — so the connections are severed (the read
// loop then parks the session for the resume window) and the liveness
// loop re-arms for the resumed link. Without a grant, the legacy response:
// evict the client.
func (sess *session) linkSilent(reason string) {
	if sess.token != 0 && sess.srv.resumeWindow > 0 && !sess.evicting.Load() && !sess.byeSeen.Load() {
		sess.srv.logf("clam: session %d: %s; severing link to park for resume", sess.id, reason)
		sess.rpcConn().Close()
		if up := sess.upcallConn(); up != nil {
			up.Close()
		}
		// The old loop returns after onDead; watch the resumed link with a
		// fresh one (it idles while the session is parked: linkDown is set).
		sess.startHeartbeat()
		return
	}
	sess.evict(reason)
}

// evict terminates the session for cause: a final FaultReport notice goes
// out on the upcall channel (best effort — the client may be the reason we
// are here), every parked upcall wait is failed so server tasks unblock,
// and the session is dropped. Idempotent.
func (sess *session) evict(reason string) {
	if !sess.evicting.CompareAndSwap(false, true) {
		return
	}
	sess.srv.metrics.countEviction()
	sess.srv.logf("clam: session %d: evicted: %s", sess.id, reason)
	if up := sess.upcallConn(); up != nil {
		report := FaultReport{Class: "clam.session", Method: "evict", Msg: reason}
		sc := rpc.GetScratch()
		if err := report.bundle(sc.Encoder()); err == nil {
			up.Send(&wire.Msg{Type: wire.MsgError, Body: sc.Bytes()})
		}
		sc.Release()
	}
	sess.srv.dropSession(sess)
}

// --- dispatcher -----------------------------------------------------------

// msgQueue is the dispatch queue: append-push, head-index pop. Popping
// nils the drained slot — the old `queue = queue[1:]` drain kept every
// drained *wire.Msg reachable through the backing array until the whole
// array was dropped, pinning message bodies long after their calls
// finished (and, with pooled frames, keeping them out of the pool's
// reach for reuse accounting).
type msgQueue struct {
	buf  []*wire.Msg
	head int
}

func (q *msgQueue) push(m *wire.Msg) { q.buf = append(q.buf, m) }

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) pop() *wire.Msg {
	if q.head >= len(q.buf) {
		return nil
	}
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 64 && q.head*2 >= len(q.buf):
		// Slide the live tail down so a long-lived queue does not grow a
		// mostly-dead prefix.
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m
}

func (sess *session) enqueue(msg *wire.Msg) {
	sess.qMu.Lock()
	sess.queue.push(msg)
	spawn := !sess.dispatching
	if spawn {
		sess.dispatching = true
	}
	sess.qMu.Unlock()
	if spawn {
		if err := sess.srv.sched.Spawn(func(t *task.Task) { sess.dispatch(t) }); err != nil {
			sess.qMu.Lock()
			sess.dispatching = false
			sess.qMu.Unlock()
		}
	}
}

// dispatch drains the session queue in order. Only one dispatcher runs at
// a time, except across a distributed upcall: the blocking handler
// releases dispatch duty first (see releaseDispatch), so a new dispatcher
// may start while the old task waits for the client. Calls queued after a
// blocked call therefore keep flowing, which is what makes the client's
// reentrant call-during-upcall pattern (§4.2's sweep finale) work.
func (sess *session) dispatch(t *task.Task) {
	sess.qMu.Lock()
	sess.owner = t
	sess.qMu.Unlock()
	for {
		sess.qMu.Lock()
		if sess.owner != t {
			// Dispatch duty was released mid-batch (distributed upcall)
			// and another task now drains the queue. This task may have
			// buffered a reply after resuming (its call finished once the
			// upcall returned), so it must flush on its way out.
			sess.qMu.Unlock()
			sess.flushReplies()
			return
		}
		if sess.queue.len() == 0 {
			sess.dispatching = false
			sess.owner = nil
			sess.qMu.Unlock()
			// The burst is drained: push its buffered replies in one write.
			sess.flushReplies()
			return
		}
		msg := sess.queue.pop()
		sess.qMu.Unlock()

		// If the handler blocks for any reason — a distributed upcall, an
		// event wait inside a loaded class, a forwarded call awaiting a
		// lower server — dispatch duty moves to a fresh task so this
		// session's queue keeps draining. That is what makes reentrant
		// client calls during a blocked handler work.
		t.SetBlockHook(func() { sess.releaseDispatch() })
		sess.execMsg(msg)
		t.SetBlockHook(nil)
	}
}

// execMsg executes one queued message and releases it: the shared body of
// the serial dispatcher loop and the per-object executor's workers.
func (sess *session) execMsg(msg *wire.Msg) {
	seq, typ := msg.Seq, msg.Type
	switch msg.Type {
	case wire.MsgCall:
		sess.execBatch(msg)
	case wire.MsgLoad:
		sess.execLoad(msg)
	case wire.MsgSync:
		// Sync is relayed before being answered, so the §3.4 guarantee —
		// every earlier asynchronous call has executed — holds across
		// forwarding hops too.
		if sess.srv.hasPeerLinks() {
			// Relaying waits on a peer server's round trip: release the
			// worker slot meanwhile. Under the serial dispatcher the block
			// hook performs the same hand-off; yieldCurrent is a no-op there.
			// A Sync that itself arrived over a mesh link relays only down
			// chain links (acyclic), never back across the mesh — see the
			// fromPeer field.
			it := sess.srv.exec.yieldCurrent()
			sess.srv.syncPeerLinks(sess.fromPeer.Load())
			sess.srv.exec.resume(it)
		}
		sess.queueReplyFrame(wire.MsgSyncReply, msg.Seq, nil)
	}
	msg.Release()
	// The mark is written strictly after execution: journaling a frame the
	// crash then loses would silently break at-most-once on replay.
	if sess.srv.journal != nil && typ == wire.MsgCall && seq != 0 {
		sess.noteExecuted(seq)
	}
}

// releaseDispatch is called by the RUC caller just before blocking for a
// client task: it gives up dispatch duty so queued (and future) calls are
// executed by a fresh task while this one waits.
func (sess *session) releaseDispatch() {
	cur := task.Current()
	if cur == nil {
		return
	}
	sess.qMu.Lock()
	if sess.owner != cur {
		sess.qMu.Unlock()
		return
	}
	sess.owner = nil
	sess.dispatching = false
	respawn := sess.queue.len() > 0
	if respawn {
		sess.dispatching = true
	}
	sess.qMu.Unlock()
	// About to block: anything this dispatcher buffered must reach the
	// client now, or a client task we are waiting on could itself be
	// waiting on one of those replies.
	sess.flushReplies()
	if respawn {
		if err := sess.srv.sched.Spawn(func(t *task.Task) { sess.dispatch(t) }); err != nil {
			sess.qMu.Lock()
			sess.dispatching = false
			sess.qMu.Unlock()
		}
	}
}

// --- call execution -------------------------------------------------------

func (sess *session) execBatch(msg *wire.Msg) {
	sess.srv.metrics.countBatch()
	arrived := msg.Arrived
	if arrived == 0 {
		arrived = time.Now().UnixNano()
	} else if sess.srv.maxQueueDelay > 0 {
		// Feed the admission estimator: the observed queue wait (for the
		// stats block), and — once this frame finishes — its execution
		// time and the pending-frame count it no longer contributes to.
		start := time.Now()
		sess.srv.metrics.noteQueueDelay(start.UnixNano() - arrived)
		defer func() {
			m := sess.srv.metrics
			m.noteServiceTime(time.Since(start))
			m.pendingFrames.Add(-1)
		}()
	}
	sc := rpc.GetScratch()
	defer sc.Release()
	dec := sc.Decoder(msg.Body)
	count, err := rpc.DecodeBatchCount(dec)
	if err != nil {
		sess.srv.logf("clam: session %d: bad call batch: %v", sess.id, err)
		return
	}
	for i := 0; i < count; i++ {
		// The header is decoded in place: method is a view into msg.Body,
		// good until the frame is released after the batch.
		var hdr rpc.CallHeader
		method, err := hdr.DecodeInPlace(dec)
		if err != nil {
			sess.srv.logf("clam: session %d: bad call header: %v", sess.id, err)
			return
		}
		sess.execCall(dec, &hdr, method, arrived, count == 1)
		if dec.Err() != nil {
			// execCall could not decode the call and poisoned the stream:
			// what follows in the body is not a call header. The caller has
			// its answer; the rest of the batch is dropped.
			return
		}
	}
}

// fail answers a call that produced no results. A synchronous call gets a
// bare status reply. An asynchronous one has no reply to carry the news, so
// faults, dispatch failures and refusals are reported with an error upcall
// (§4.3) rather than silently swallowed; its own application error is not.
func (sess *session) fail(seq uint64, class, method string, status rpc.Status, msg string) {
	switch {
	case seq != 0:
		sess.replyStatus(seq, status, msg)
	case status != rpc.StatusAppError:
		sess.reportFault(class, method, msg)
	}
}

// shedEarly decides, before any argument decoding, whether a sole-call
// frame should be shed: the caller cancelled it, or its deadline budget
// was already spent while it sat queued. Only legal when nothing follows
// the call in the frame — mid-batch, refusal happens after the arguments
// are decoded so the stream stays aligned (§3.4 order is preserved either
// way: the shed call's slot still produces its reply in sequence).
func (sess *session) shedEarly(hdr *rpc.CallHeader, method []byte, arrived int64) bool {
	if hdr.Seq != 0 && sess.takeCancel(hdr.Seq) {
		sess.srv.metrics.shedCancelled.Add(1)
		sess.fail(hdr.Seq, "", string(method), rpc.StatusDeadline, "cancelled by caller")
		return true
	}
	if hdr.Budget != 0 && sess.srv.shedExpired() && budgetSpent(hdr.Budget, arrived) {
		sess.srv.metrics.shedExpired.Add(1)
		sess.fail(hdr.Seq, "", string(method), rpc.StatusDeadline, "deadline budget spent before dispatch")
		return true
	}
	return false
}

// budgetSpent reports whether a call's microsecond budget, anchored at
// its frame's arrival, has already elapsed.
func budgetSpent(budgetUS uint64, arrived int64) bool {
	return time.Now().UnixNano()-arrived >= int64(budgetUS)*int64(time.Microsecond)
}

// admitCall is the admission layer (§6.8, WithMaxQueueDelay): the read
// loop offers every call frame here before queuing it. When the EWMA
// queue-wait estimate exceeds the configured ceiling — or, for a budgeted
// call, would alone exhaust the call's entire budget — a synchronous
// sole-call frame is refused right here with StatusDeadline, before it
// ever occupies a dispatch lane. Batches and asynchronous calls always
// pass: refusing mid-batch needs the dispatcher's decode discipline
// anyway, and they fall through to the shed checks there. Reports true
// when the call was refused (msg released, reply queued and flushed).
func (sess *session) admitCall(msg *wire.Msg) bool {
	seq, budgetUS, ok := peekCallMeta(msg)
	if !ok || seq == 0 {
		return false
	}
	workers := 1
	if x := sess.srv.exec; x != nil {
		workers = x.workers
	}
	est := sess.srv.metrics.queueDelayEstimate(workers)
	over := est > int64(sess.srv.maxQueueDelay)
	if !over && budgetUS != 0 && est >= int64(budgetUS)*int64(time.Microsecond) {
		over = true
	}
	if !over {
		return false
	}
	sess.srv.metrics.shedAdmission.Add(1)
	sess.replyStatus(seq, rpc.StatusDeadline, "refused at admission: dispatch queue wait exceeds budget")
	sess.flushReplies()
	// A numbered frame refused here still counts as consumed for the
	// journal's receive mark: a crash-replay of it must dedup, not run.
	if sess.srv.journal != nil && msg.Seq != 0 {
		sess.noteExecuted(msg.Seq)
	}
	msg.Release()
	return true
}

// execCall decodes, runs and answers a single call. method is the call's
// name as a view into the frame body. arrived is the UnixNano arrival time
// of the carrying frame (the anchor for hdr.Budget); sole marks a
// single-call frame, where shedding may skip decoding. A call whose
// arguments cannot be decoded poisons dec: the bytes after it are not a
// call header, so the rest of its batch goes with it.
func (sess *session) execCall(dec *xdr.Stream, hdr *rpc.CallHeader, method []byte, arrived int64, sole bool) {
	srv := sess.srv
	if hdr.Budget != 0 {
		srv.metrics.budgetedCalls.Add(1)
	}
	if sole && sess.shedEarly(hdr, method, arrived) {
		return
	}

	// One lookup resolves the call: the handle-table entry carries the
	// object and the compiled stubs of its class.
	entry, err := srv.handles.Entry(hdr.Obj)
	if pr, ok := entry.Obj.(*Remote); ok {
		// A proxy entry: the object lives on a lower server this server
		// dialed. Relay the call down instead of invoking locally.
		hdr.Method = string(method)
		sess.execForward(dec, hdr, pr, entry, arrived)
		return
	}
	var stub *rpc.MethodStub
	className := ""
	if err == nil {
		if cs, _ := entry.Dispatch.(*rpc.ClassStubs); cs == nil || cs.Retired() {
			err = fmt.Errorf("clam: class %d is not loaded", entry.ClassID)
		} else {
			className = cs.Class
			srv.metrics.countCall(hdr.Seq != 0)
			stub, err = cs.Lookup(method)
		}
	}
	if err != nil {
		// No stub, no way to decode the arguments.
		dec.SetErr(fmt.Errorf("clam: undecodable call %s", method))
		sess.fail(hdr.Seq, className, string(method), rpc.StatusDispatch, err.Error())
		return
	}
	stub.Calls.Add(1)
	ctx := sess.ctx()
	f := stub.Frame()
	defer f.Release() // after the reply is encoded: out-parameters are read from the frame
	if err := stub.DecodeInto(ctx, dec, f); err != nil {
		// Kind or argc mismatch: the stream is desynchronized.
		dec.SetErr(err)
		sess.fail(hdr.Seq, className, string(method), rpc.StatusDispatch, err.Error())
		return
	}

	// Arguments are decoded; now (and only now, mid-batch) the call can be
	// refused without desynchronizing the stream: consume a cancel the
	// caller sent while it queued, then re-check the budget.
	var callCtx context.Context
	switch {
	case hdr.Seq != 0 && sess.takeCancel(hdr.Seq):
		srv.metrics.shedCancelled.Add(1)
		sess.fail(hdr.Seq, className, string(method), rpc.StatusDeadline, "cancelled by caller")
		return
	case hdr.Budget != 0 && srv.shedExpired() && budgetSpent(hdr.Budget, arrived):
		srv.metrics.shedExpired.Add(1)
		sess.fail(hdr.Seq, className, string(method), rpc.StatusDeadline, "deadline budget spent before dispatch")
		return
	case hdr.Budget != 0:
		// The handler runs under a real deadline anchored at frame arrival;
		// a MsgCancel arriving mid-run cancels it through registerLive.
		// The deferred cleanup runs after callFailure has read the
		// context's error.
		deadline := time.Unix(0, arrived).Add(time.Duration(hdr.Budget) * time.Microsecond)
		var cancel context.CancelFunc
		callCtx, cancel = context.WithDeadline(context.Background(), deadline)
		defer cancel()
		if hdr.Seq != 0 {
			sess.registerLive(hdr.Seq, cancel)
			defer sess.unregisterLive(hdr.Seq)
		}
	}

	var rets []reflect.Value
	recv := reflect.ValueOf(entry.Obj)
	gerr := dynload.Guard(func() error {
		var appErr error
		rets, appErr = stub.Call(callCtx, recv, f)
		return appErr
	})
	if gerr != nil {
		status, msg := srv.callFailure(gerr, callCtx)
		sess.fail(hdr.Seq, className, string(method), status, msg)
		return
	}
	if hdr.Seq == 0 {
		return // asynchronous: no reply exists
	}

	// The reply is encoded into its own scratch — the batch decoder (dec)
	// is mid-stream and its workspace cannot be shared. queueReplyFrame
	// copies the body toward the kernel before returning, so releasing
	// right after is safe.
	rsc := rpc.GetScratch()
	defer rsc.Release()
	enc := rsc.Encoder()
	rh := rpc.ReplyHeader{}
	if err := rh.Bundle(enc); err != nil {
		srv.logf("clam: session %d: encoding reply header: %v", sess.id, err)
		return
	}
	if err := stub.EncodeReplyPayload(ctx, enc, f.Args(), rets); err != nil {
		// A dispatch error, so the client is not left waiting on a
		// half-encoded reply.
		sess.replyStatus(hdr.Seq, rpc.StatusDispatch, err.Error())
		return
	}
	sess.queueReplyFrame(wire.MsgReply, hdr.Seq, rsc.Bytes())
}

// callFailure maps what a handler returned, or the fault it died of, to the
// status its caller sees. Kept off execCall's success path: errors.As makes
// its target escape.
func (s *Server) callFailure(gerr error, callCtx context.Context) (rpc.Status, string) {
	var fault *dynload.Fault
	if errors.As(gerr, &fault) {
		s.metrics.countFault()
		return rpc.StatusFault, fault.Error()
	}
	if callCtx != nil && callCtx.Err() != nil && errors.Is(gerr, callCtx.Err()) {
		// The handler observed its context's expiry/cancel and bailed:
		// report it as the deadline status so the caller (and any hop above)
		// sees one consistent verdict.
		return rpc.StatusDeadline, gerr.Error()
	}
	return rpc.StatusAppError, gerr.Error()
}

// --- load protocol --------------------------------------------------------

func (sess *session) execLoad(msg *wire.Msg) {
	var req loadBody
	reply := loadReplyBody{}
	sc := rpc.GetScratch()
	err := req.bundle(sc.Decoder(msg.Body))
	sc.Release()
	if err != nil {
		reply.ErrMsg = err.Error()
		sess.sendLoadReply(msg.Seq, &reply)
		return
	}

	switch req.Op {
	case loadOpLoad, loadOpLoadExact:
		var loaded *dynload.Loaded
		var err error
		if req.Op == loadOpLoadExact {
			loaded, err = sess.srv.LoadExact(req.Name, req.MinVersion)
		} else {
			loaded, err = sess.srv.Load(req.Name, req.MinVersion)
		}
		if err != nil {
			reply.ErrMsg = err.Error()
			break
		}
		reply.OK = true
		reply.ClassID = loaded.ID
		reply.Version = loaded.Version
		reply.Name = loaded.Name
	case loadOpNew, loadOpNewExact:
		env := &Env{Server: sess.srv, SessionID: sess.id}
		var obj any
		var h handle.Handle
		var err error
		if req.Op == loadOpNewExact {
			obj, h, err = sess.srv.CreateInstanceExact(req.Name, req.MinVersion, env)
		} else {
			obj, h, err = sess.srv.CreateInstance(req.Name, req.MinVersion, env)
		}
		if err != nil {
			reply.ErrMsg = err.Error()
			break
		}
		loaded, err := sess.srv.loader.ByType(reflect.TypeOf(obj))
		if err != nil {
			reply.ErrMsg = err.Error()
			break
		}
		reply.OK = true
		reply.ClassID = loaded.ID
		reply.Version = loaded.Version
		reply.Name = loaded.Name
		reply.Obj = h
	case loadOpUnload:
		if err := sess.srv.unload(req.Name, req.MinVersion); err != nil {
			reply.ErrMsg = err.Error()
			break
		}
		reply.OK = true
	case loadOpNamed:
		sess.execLoadNamed(&req, &reply)
	case loadOpDescribe:
		sess.execDescribe(&req, &reply)
	default:
		reply.ErrMsg = fmt.Sprintf("clam: unknown load op %d", req.Op)
	}
	if reply.OK {
		sess.srv.metrics.countLoad()
	}
	sess.sendLoadReply(msg.Seq, &reply)
}

// execLoadNamed resolves a published name to a handle. A published
// *Remote — a lower server's object imported by this middle tier — is
// re-exported as a proxy handle rather than minted as a local object.
func (sess *session) execLoadNamed(req *loadBody, reply *loadReplyBody) {
	obj, ok := sess.srv.Named(req.Name)
	if !ok {
		// In a mesh, a name this server does not hold may live on the
		// peer the directory hashes it to: resolve it there and cache the
		// *Remote, so the proxy-export path below serves it like any
		// imported object (mesh.go).
		obj, ok = sess.srv.meshResolveNamed(sess, req.Name)
		if !ok {
			reply.ErrMsg = fmt.Sprintf("clam: no named instance %q", req.Name)
			return
		}
		if err, isErr := obj.(error); isErr {
			reply.ErrMsg = err.Error()
			return
		}
	}
	if r, isProxy := obj.(*Remote); isProxy {
		h, err := sess.srv.exportProxy(r)
		if err != nil {
			reply.ErrMsg = err.Error()
			return
		}
		reply.OK = true
		reply.ClassID, reply.Version = r.classInfo()
		if pl := sess.srv.linkFor(r.c); pl != nil {
			if pc, perr := sess.srv.proxyClassFor(pl, reply.ClassID, reply.Version); perr == nil {
				reply.Name = pc.name
			}
		}
		reply.Obj = h
		return
	}
	loaded, err := sess.srv.loader.ByType(reflect.TypeOf(obj))
	if err != nil {
		reply.ErrMsg = err.Error()
		return
	}
	h, err := sess.srv.putHandle(obj, loaded, sess.id)
	if err != nil {
		reply.ErrMsg = err.Error()
		return
	}
	reply.OK = true
	reply.ClassID = loaded.ID
	reply.Version = loaded.Version
	reply.Name = loaded.Name
	reply.Obj = h
}

// execDescribe answers loadOpDescribe: resolve a class id (or the class
// behind a handle) to its {name, version} identity, so a higher server
// can translate proxied classes it has never loaded (forward.go).
func (sess *session) execDescribe(req *loadBody, reply *loadReplyBody) {
	classID, version := req.ClassID, uint32(0)
	if classID == 0 && !req.Obj.IsNil() {
		entry, err := sess.srv.handles.Entry(req.Obj)
		if err != nil {
			reply.ErrMsg = err.Error()
			return
		}
		if r, isProxy := entry.Obj.(*Remote); isProxy {
			// A proxy entry carries the lower server's class identity; its
			// numeric id must not be confused with local loader ids.
			reply.OK = true
			reply.ClassID, reply.Version = r.classInfo()
			if pl := sess.srv.linkFor(r.c); pl != nil {
				if pc, perr := sess.srv.proxyClassFor(pl, reply.ClassID, reply.Version); perr == nil {
					reply.Name = pc.name
				}
			}
			return
		}
		classID, version = entry.ClassID, entry.Version
	}
	if loaded, err := sess.srv.loader.Get(classID); err == nil {
		reply.OK = true
		reply.ClassID = classID
		reply.Name = loaded.Name
		if version == 0 {
			version = loaded.Version
		}
		reply.Version = version
		return
	}
	// Not loaded here: the class may live further down a chain of
	// forwarding servers, in which case an upstream translation cache
	// knows its identity.
	if pc := sess.srv.cachedProxyClass(classID); pc != nil {
		reply.OK = true
		reply.ClassID = classID
		reply.Name = pc.name
		if version == 0 {
			version = pc.version
		}
		reply.Version = version
		return
	}
	reply.ErrMsg = fmt.Sprintf("clam: class %d not loaded", classID)
}

func (sess *session) sendLoadReply(seq uint64, reply *loadReplyBody) {
	sc := rpc.GetScratch()
	defer sc.Release()
	if err := reply.bundle(sc.Encoder()); err != nil {
		sess.srv.logf("clam: session %d: encoding load reply: %v", sess.id, err)
		return
	}
	sess.queueReplyFrame(wire.MsgLoadReply, seq, sc.Bytes())
}

// --- distributed upcalls (ruc.Caller) --------------------------------------

// errNoUpcallChannel reports an upcall attempted before the client
// attached its second channel.
var errNoUpcallChannel = errors.New("clam: client has no upcall channel")

// Upcall implements ruc.Caller: it is the remote call back to the higher
// level object in the client (§4.1). The server task blocks while the
// client task carries the flow of control (§4.3); at most one upcall is
// active per client (§4.4). The wait runs on the shared endpoint engine:
// the endpoint's callTimeout is the server's WithUpcallTimeout.
func (sess *session) Upcall(procID uint64, ft reflect.Type, args []reflect.Value) ([]reflect.Value, error) {
	// An executor worker about to wait for a client task must release its
	// slot before contending for the upcall gate: the slot's replacement
	// keeps the session's lanes draining while the gate (bounded per §4.4)
	// and then the wire are waited on. No-op under the serial dispatcher,
	// whose block hook performs the equivalent hand-off.
	xit := sess.srv.exec.yieldCurrent()
	defer sess.srv.exec.resume(xit)
	cur := task.Current()
	if !sess.acquireUpcallGate(cur) {
		return nil, fmt.Errorf("clam: session %d closed before upcall", sess.id)
	}
	defer sess.releaseUpcallGate()
	failed := true
	defer func() { sess.srv.metrics.countUpcall(failed) }()

	c := sess.upcallConn()
	if c == nil {
		return nil, errNoUpcallChannel
	}
	seq := sess.seq.Add(1)

	sc := rpc.GetScratch()
	enc := sc.Encoder()
	uh := rpc.UpcallHeader{ProcID: procID}
	if err := uh.Bundle(enc); err != nil {
		sc.Release()
		return nil, err
	}
	ctx := sess.ctx()
	if err := rpc.EncodeFuncArgs(sess.srv.reg, ctx, enc, ft, args); err != nil {
		sc.Release()
		return nil, err
	}

	// Arm the reply slot before sending so a fast client cannot race the
	// wait.
	w := sess.waits.arm(seq)
	defer sess.waits.disarm(seq)

	// Buffered replies must precede the upcall: the client task about to
	// take over the flow of control may depend on them. Send copies the
	// scratch bytes before returning, so the workspace recycles here.
	sess.flushReplies()
	err := c.SendFrame(wire.MsgUpcall, seq, sc.Bytes())
	sc.Release()
	if err != nil {
		return nil, fmt.Errorf("clam: sending upcall: %w", err)
	}

	if cur != nil {
		// Hand off dispatch duty so this session's queue keeps draining
		// while we wait for the client task (await's Block would fire the
		// block hook anyway; releasing eagerly keeps the handoff explicit).
		sess.releaseDispatch()
	}
	reply, werr := sess.await(nil, seq, w)
	if werr != nil {
		if errors.Is(werr, ErrCallTimeout) {
			sess.srv.metrics.countUpcallTimeout()
		}
		sess.noteUpcallFailure()
		return nil, fmt.Errorf("clam: upcall %d to session %d failed (timeout or disconnect)", seq, sess.id)
	}
	// The client answered; whatever the payload says, it is not a slow
	// consumer.
	sess.slowFails.Store(0)

	dsc := rpc.GetScratch()
	rets, appErr, derr := rpc.DecodeFuncResults(sess.srv.reg, sess.ctx(), dsc.Decoder(reply.Body), ft)
	dsc.Release()
	reply.Release()
	if derr != nil {
		return nil, derr
	}
	if appErr != nil {
		return nil, appErr
	}
	failed = false
	return rets, nil
}

// noteUpcallFailure records one transport-level upcall failure (no reply
// arrived) and evicts the session once the consecutive-failure count
// reaches the server's slow-consumer limit. The eviction runs on its own
// goroutine: the caller may be a task holding the scheduler's run token,
// and eviction closes connections, which can block.
func (sess *session) noteUpcallFailure() {
	n := sess.slowFails.Add(1)
	limit := sess.srv.slowConsumerLimit
	if limit <= 0 || int(n) < limit {
		return
	}
	go sess.evict(fmt.Sprintf("slow consumer: %d consecutive upcall failures", n))
}

// reportFault notifies the client that it tried to use a faulty class
// (§4.3). A new task carries the report so the failing path is not
// delayed; the report travels on the upcall channel as a MsgError.
func (sess *session) reportFault(class, method, msg string) {
	sess.srv.metrics.countFaultReport()
	report := FaultReport{Class: class, Method: method, Msg: msg}
	err := sess.srv.sched.Spawn(func(*task.Task) {
		c := sess.upcallConn()
		if c == nil {
			sess.srv.logf("clam: session %d: dropping fault report (%v): no upcall channel", sess.id, report)
			return
		}
		sc := rpc.GetScratch()
		defer sc.Release()
		if err := report.bundle(sc.Encoder()); err != nil {
			return
		}
		if err := c.Send(&wire.Msg{Type: wire.MsgError, Body: sc.Bytes()}); err != nil {
			sess.srv.logf("clam: session %d: fault report failed: %v", sess.id, err)
		}
	})
	if err != nil {
		sess.srv.logf("clam: session %d: fault report task: %v", sess.id, err)
	}
}
