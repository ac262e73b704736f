// Package wire provides the typed-message transport CLAM runs over: framed
// messages on reliable, in-order byte streams (ICDCS 1988, §3.4 and §4.4).
//
// The paper's design point is that multiplexing several conversations onto
// one UNIX stream is awkward without typed messages, so CLAM gives each
// communication channel its own stream: one per client for RPC requests and
// one per client for upcalls. This package supplies the framing both streams
// share, plus buffered writes so the RPC layer can batch several asynchronous
// calls into a single message exchange, and a simulated wide-area link used
// to reproduce the "different machines" rows of Figure 5.1 on one host.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"clam/internal/xdr"
)

// MsgType identifies the conversation a frame belongs to, replacing the
// "extra information to specify which conversation is currently active" the
// paper says untyped streams would require.
type MsgType uint8

// Message types. Hello messages pair a client's two streams into one
// session; Call/Reply carry RPC batches; Upcall/UpcallReply carry
// distributed upcalls; Load/LoadReply carry dynamic-loading requests; Sync
// forces a batch flush and round trip; Error reports server-detected faults;
// Ping/Pong are the liveness heartbeats either end may send on either
// stream — the paper's dual-stream protocol (§4.4) has no liveness story of
// its own, so heartbeats are the robustness layer's addition. Resume and
// ResumeReply re-pair a reconnecting stream with a parked session: a client
// whose link died presents its resume token instead of a fresh Hello, and
// the reply carries the server's receive high-water mark so the client can
// replay only the batches the server never saw.
const (
	MsgHello MsgType = iota + 1
	MsgHelloReply
	MsgCall
	MsgReply
	MsgUpcall
	MsgUpcallReply
	MsgLoad
	MsgLoadReply
	MsgSync
	MsgSyncReply
	MsgError
	MsgBye
	MsgPing
	MsgPong
	MsgResume
	MsgResumeReply
	MsgCancel
)

var msgTypeNames = map[MsgType]string{
	MsgHello:       "Hello",
	MsgHelloReply:  "HelloReply",
	MsgCall:        "Call",
	MsgReply:       "Reply",
	MsgUpcall:      "Upcall",
	MsgUpcallReply: "UpcallReply",
	MsgLoad:        "Load",
	MsgLoadReply:   "LoadReply",
	MsgSync:        "Sync",
	MsgSyncReply:   "SyncReply",
	MsgError:       "Error",
	MsgBye:         "Bye",
	MsgPing:        "Ping",
	MsgPong:        "Pong",
	MsgResume:      "Resume",
	MsgResumeReply: "ResumeReply",
	MsgCancel:      "Cancel",
}

// String returns a readable name for the message type.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// BodyLimit reports the cap on a frame body. The limit is shared with the
// xdr layer (xdr.MaxBytesLimit / xdr.SetMaxBytesLimit): the two layers
// used to disagree (64 MiB frames over 16 MiB decodables), which let a
// peer ship a frame that was fully allocated and read only to be rejected
// mid-decode. With one limit, an oversized body is refused at the frame
// header, before any of it is read.
func BodyLimit() int { return xdr.MaxBytesLimit() }

// headerLen is the fixed frame prefix: 4 bytes magic+type, 8 bytes sequence
// number, 4 bytes body length.
const headerLen = 16

// magic guards against a foreign protocol talking to a CLAM port.
const magic = 0xC1A0

// Stream is the byte transport a Conn frames messages over: a reliable,
// in-order duplex byte stream. Every net.Conn satisfies it, and so does a
// shared-memory ring endpoint (internal/shm) — the framing, batching and
// pooling above this seam are identical on both, which is what lets the
// whole session protocol (hello/resume, heartbeats, journal, mesh,
// fan-out) ride a ring without a fork.
type Stream interface {
	io.ReadWriteCloser
	LocalAddr() net.Addr
	RemoteAddr() net.Addr
}

// Msg is one framed message. Seq correlates replies with requests: a reply
// carries the Seq of the message it answers.
//
// Messages returned by Recv are pooled: the caller owns the message until
// it calls Release (or writes it back with Write/Send, which consumes it),
// after which the message and its body must not be touched. Data that
// must outlive the message must be copied out — the xdr decoders already
// copy, so decode-then-Release is the normal pattern.
type Msg struct {
	Type MsgType
	Seq  uint64
	Body []byte
	// Arrived is an optional receive timestamp (UnixNano) stamped by the
	// session read loop. Deadline budgets in call frames are anchored to it:
	// a call's remaining budget is measured from the moment its frame was
	// read off the wire, not from when a dispatch worker finally picks it
	// up — queue wait counts against the caller's deadline.
	Arrived int64
	// pooled marks a message whose storage came from msgPool and returns
	// there on Release. Caller-constructed messages are never pooled.
	pooled bool
}

// msgPool recycles Recv messages together with their body arrays. The
// paper's §5 table shows message handling dominating a CLAM call; on a
// modern runtime the per-frame make([]byte, n) is a large share of that,
// so steady-state Recv reuses released bodies instead of allocating.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// maxPooledBody caps the body capacity the pool will retain, so one huge
// frame does not pin megabytes behind a pool entry forever.
const maxPooledBody = 256 << 10

// poolingOff disables frame pooling (the allocation ablation switch).
var poolingOff atomic.Bool

// SetPooling toggles frame-body pooling and reports the previous state.
// Pooling is on by default; turning it off restores the allocate-per-Recv
// behavior and is intended only for the allocation ablation benchmarks.
func SetPooling(on bool) (prev bool) { return !poolingOff.Swap(!on) }

// newRecvMsg returns a message with a body of length n, pooled when
// pooling is enabled.
func newRecvMsg(n int) *Msg {
	if poolingOff.Load() {
		m := &Msg{}
		if n > 0 {
			m.Body = make([]byte, n)
		}
		return m
	}
	m := msgPool.Get().(*Msg)
	m.pooled = true
	if n == 0 {
		m.Body = m.Body[:0]
		return m
	}
	if cap(m.Body) < n {
		m.Body = make([]byte, n)
	} else {
		m.Body = m.Body[:n]
	}
	return m
}

// Release returns a pooled message to the frame pool. It is a no-op for
// nil and caller-constructed messages, and idempotent for pooled ones,
// but any use of the message or a retained Body slice after Release is a
// data race with the next Recv.
func (m *Msg) Release() {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false
	m.Type = 0
	m.Seq = 0
	m.Arrived = 0
	if cap(m.Body) > maxPooledBody {
		m.Body = nil
	} else {
		m.Body = m.Body[:0]
	}
	msgPool.Put(m)
}

// Frame errors.
var (
	ErrBadMagic = errors.New("wire: bad frame magic")
	ErrBadType  = errors.New("wire: unknown frame type")
	ErrTooBig   = errors.New("wire: frame body exceeds limit")
	ErrClosed   = errors.New("wire: connection closed")
)

// validType reports whether t is a known frame type — checked on both
// ends so a corrupt header is caught before its length prefix can force
// an allocation.
func validType(t MsgType) bool { return t >= MsgHello && t <= MsgCancel }

// Conn frames messages over a Stream. Writes are buffered until Flush so
// several messages — or one message assembled incrementally — cost a single
// kernel round trip, which is what makes the paper's call batching pay off.
// Reads and writes may proceed concurrently; writers are serialized with
// each other, as are readers.
//
// Over kernel sockets (TCP, UNIX domain) the write side runs in vectored
// mode: queued frames are gathered into a single writev at Flush instead
// of being copied through a bufio buffer, so a coalesced burst of replies
// or a client batch plus its trailing Sync costs exactly one syscall
// regardless of size. Other streams (pipes, SimLink, shm rings) keep the
// bufio path, whose single Flush write is already optimal for them.
type Conn struct {
	wmu sync.Mutex
	// Exactly one of bw/vec is non-nil: bw is the buffered-copy write path,
	// vec the vectored-gather path for real sockets.
	bw  *bufio.Writer
	vec *vecWriter
	rmu sync.Mutex
	br  *bufio.Reader
	c   Stream

	closed sync.Once
	// Frame counters are atomic: Stats must not contend with a reader
	// blocked in Recv, which holds rmu across the wait for data.
	sent     atomic.Uint64
	received atomic.Uint64
	// Write-header scratch lives on the Conn (not the stack) because slices
	// passed through the io interfaces escape; guarded by wmu.
	wh [headerLen]byte
}

// connBuf is the size of the read buffer and (in bufio mode) the write
// buffer: frames at or under this ride the single-fill receive path.
const connBuf = 64 << 10

// NewConn wraps c in a framed connection.
func NewConn(c Stream) *Conn {
	conn := &Conn{
		br: bufio.NewReaderSize(c, connBuf),
		c:  c,
	}
	if vectorable(c) {
		conn.vec = newVecWriter(c)
	} else {
		conn.bw = bufio.NewWriterSize(c, connBuf)
	}
	return conn
}

// vectorable reports whether the stream supports true scatter-gather
// writes. Only kernel sockets do — net.Buffers degenerates to one write
// per slice everywhere else, which would be strictly worse than bufio.
func vectorable(c Stream) bool {
	switch c.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}

// RemoteAddr reports the address of the peer.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// LocalAddr reports the local address.
func (c *Conn) LocalAddr() net.Addr { return c.c.LocalAddr() }

func putHeader(h []byte, t MsgType, seq uint64, n int) {
	binary.BigEndian.PutUint16(h[0:2], magic)
	h[2] = byte(t)
	h[3] = 0 // reserved
	binary.BigEndian.PutUint64(h[4:12], seq)
	binary.BigEndian.PutUint32(h[12:16], uint32(n))
}

// Write queues m on the connection without flushing. Use it to batch; pair
// with Flush. Safe for concurrent use. Writing a pooled message (one
// returned by Recv) consumes it: the body is recycled once it has been
// copied toward the kernel (in vectored mode, possibly not until the
// flush — either way the caller must not touch it after Write).
func (c *Conn) Write(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(m.Type, m.Seq, m.Body, m)
}

// WriteFrame is Write for callers assembling a frame from parts: it queues
// a frame of the given type, sequence and body without constructing a Msg
// (whose pointer would escape to the heap at every call site on the hot
// path). The body is copied before WriteFrame returns; the caller may
// reuse it immediately.
func (c *Conn) WriteFrame(t MsgType, seq uint64, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(t, seq, body, nil)
}

// writeLocked queues one frame; wmu must be held. m, when non-nil, is the
// pooled message owning body — vectored mode may retain it until the next
// flush instead of copying; either way it is consumed.
func (c *Conn) writeLocked(t MsgType, seq uint64, body []byte, m *Msg) error {
	if !validType(t) {
		return fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
	if len(body) > BodyLimit() {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(body))
	}
	putHeader(c.wh[:], t, seq, len(body))
	if c.vec != nil {
		c.vec.queue(c.wh[:], body, m)
		c.sent.Add(1)
		if c.vec.pending >= maxVecPending {
			return c.flushLocked()
		}
		return nil
	}
	if _, err := c.bw.Write(c.wh[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	// bufio either copies the body into its buffer or hands it to the
	// kernel before returning, so the caller's (or the pool's) reuse of
	// the array after this point is safe.
	if _, err := c.bw.Write(body); err != nil {
		return fmt.Errorf("wire: write body: %w", err)
	}
	c.sent.Add(1)
	m.Release()
	return nil
}

// Flush pushes all queued frames to the kernel — one writev in vectored
// mode, one write otherwise.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Conn) flushLocked() error {
	if c.vec != nil {
		if err := c.vec.flush(); err != nil {
			return fmt.Errorf("wire: flush: %w", err)
		}
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Send writes m and flushes in one step.
func (c *Conn) Send(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeLocked(m.Type, m.Seq, m.Body, m); err != nil {
		return err
	}
	return c.flushLocked()
}

// SendFrame is Send without a Msg allocation at the call site; the body is
// not retained.
func (c *Conn) SendFrame(t MsgType, seq uint64, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeLocked(t, seq, body, nil); err != nil {
		return err
	}
	return c.flushLocked()
}

// recvChunk bounds how much body storage Recv commits before the bytes
// actually arrive: a corrupt-but-well-formed header can name a body up to
// BodyLimit, so large bodies are read in capped chunks and the buffer
// grows only as data shows up.
const recvChunk = 1 << 20

// mapReadErr folds the stream-is-gone error family into ErrClosed.
func mapReadErr(op string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return ErrClosed
	}
	return fmt.Errorf("wire: %s: %w", op, err)
}

// Recv blocks until the next frame arrives and returns it. The returned
// message is pooled: the caller owns it until Msg.Release (or a Write,
// which consumes it), and must copy out any body bytes it keeps.
//
// A frame is validated — magic, known type, reserved byte, body within
// the shared BodyLimit — before any body storage is committed, so a
// hostile or corrupt header cannot force a max-size allocation.
//
// The header is parsed in place with a buffered peek, and a frame that
// fits the read buffer is filled and copied out in one step — one read
// from the stream for header plus body, where the old path's two
// ReadFulls could cost two.
func (c *Conn) Recv() (*Msg, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	h, err := c.br.Peek(headerLen)
	if err != nil {
		return nil, mapReadErr("read header", err)
	}
	if binary.BigEndian.Uint16(h[0:2]) != magic {
		return nil, ErrBadMagic
	}
	if t := MsgType(h[2]); !validType(t) || h[3] != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadType, h[2])
	}
	n := int(binary.BigEndian.Uint32(h[12:16]))
	if n > BodyLimit() {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooBig, n)
	}
	m := newRecvMsg(min(n, recvChunk))
	m.Type = MsgType(h[2])
	m.Seq = binary.BigEndian.Uint64(h[4:12])
	if headerLen+n <= c.br.Size() {
		// Single-fill fast path: peek the whole frame (one stream read when
		// it is not yet buffered), copy the body out, consume it.
		buf, err := c.br.Peek(headerLen + n)
		if err != nil {
			m.Release()
			return nil, mapReadErr("read body", err)
		}
		copy(m.Body, buf[headerLen:])
		c.br.Discard(headerLen + n)
	} else {
		c.br.Discard(headerLen)
		if err := c.readBody(m, n); err != nil {
			m.Release()
			return nil, err
		}
	}
	c.received.Add(1)
	return m, nil
}

// readBody fills m.Body with the n-byte frame body, growing in recvChunk
// steps so storage is committed only as data arrives.
func (c *Conn) readBody(m *Msg, n int) error {
	if n <= recvChunk {
		if _, err := io.ReadFull(c.br, m.Body); err != nil {
			return mapBodyErr(err)
		}
		return nil
	}
	body := m.Body[:0]
	for len(body) < n {
		step := min(n-len(body), recvChunk)
		if cap(body)-len(body) < step {
			grown := make([]byte, len(body), min(2*cap(body)+step, n))
			copy(grown, body)
			body = grown
		}
		seg := body[len(body) : len(body)+step]
		if _, err := io.ReadFull(c.br, seg); err != nil {
			m.Body = body
			return mapBodyErr(err)
		}
		body = body[:len(body)+step]
	}
	m.Body = body
	return nil
}

// mapBodyErr preserves the old readBody error shape: a stream that died
// mid-body is a plain read error, not ErrClosed — the frame is torn either
// way, but the diagnostic names the failing read.
func mapBodyErr(err error) error {
	return fmt.Errorf("wire: read body: %w", err)
}

// Stats reports the number of frames sent and received so far. The two
// counters are sampled independently, so a snapshot taken during heavy
// traffic may be slightly stale.
func (c *Conn) Stats() (sent, received uint64) {
	return c.sent.Load(), c.received.Load()
}

// Close tears the connection down. It is safe to call more than once.
func (c *Conn) Close() error {
	var err error
	c.closed.Do(func() {
		c.wmu.Lock()
		if c.vec != nil {
			c.vec.drop()
		}
		c.wmu.Unlock()
		err = c.c.Close()
	})
	return err
}

// Pipe returns a connected pair of in-memory framed connections, useful for
// tests and for measuring protocol overheads without kernel sockets.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

// --- vectored write path ----------------------------------------------------

// maxVecPending auto-flushes the gather list once this many bytes are
// queued, bounding how much memory (and how many pooled bodies) an
// unflushed burst can pin.
const maxVecPending = 256 << 10

// vecChunk is the arena chunk size: headers and small bodies are copied
// into chunks so adjacent frames merge into one iovec.
const vecChunk = 64 << 10

// vecRetain is the body size above which a pooled message is retained by
// reference until the flush instead of being copied into the arena: the
// iovec entry is cheaper than the copy for large bodies, and the pool
// contract (caller must not touch a written message) makes the retention
// safe.
const vecRetain = 4 << 10

// vecFlushes / vecFrames count vectored flushes (writev calls issued on
// behalf of queued frames) and the frames they carried, for TransportStats.
var (
	vecFlushes atomic.Uint64
	vecFrames  atomic.Uint64
)

// VecStats reports process-wide vectored-write activity: gather flushes
// (each one writev burst) and the frames those flushes carried. The ratio
// frames/flushes is the syscall batching factor.
func VecStats() (flushes, frames uint64) {
	return vecFlushes.Load(), vecFrames.Load()
}

// vecWriter gathers queued frames into a net.Buffers for a single writev
// at flush. Headers and small bodies are copied into arena chunks (and
// merged into one iovec when adjacent); large pooled bodies are referenced
// in place and released after the flush. Guarded by the Conn's wmu.
type vecWriter struct {
	w    io.Writer
	bufs net.Buffers
	// out is the copy of bufs that WriteTo consumes. WriteTo has a pointer
	// receiver and hands the pointer to the socket through an interface, so
	// a local copy would be allocated on every flush; this one lives in the
	// writer.
	out net.Buffers
	// arena is the current copy chunk (len = used). tail tracks the iovec
	// that is the growing end of arena so consecutive copies extend it
	// instead of adding entries; tailIdx is -1 when the last iovec is a
	// referenced body or a retired chunk.
	arena     []byte
	spare     [][]byte // full chunks, kept until flush (first is reused after)
	tailIdx   int
	tailStart int
	retained  []*Msg
	pending   int
	frames    int
}

func newVecWriter(w io.Writer) *vecWriter {
	return &vecWriter{
		w:       w,
		arena:   make([]byte, 0, vecChunk),
		tailIdx: -1,
	}
}

// queue adds one frame (header + body) to the gather list. m, when
// non-nil, is the pooled message owning body.
func (v *vecWriter) queue(hdr, body []byte, m *Msg) {
	v.copyIn(hdr)
	if m != nil && m.pooled && len(body) >= vecRetain {
		v.bufs = append(v.bufs, body)
		v.tailIdx = -1
		v.pending += len(body)
		v.retained = append(v.retained, m)
	} else {
		v.copyIn(body)
		m.Release()
	}
	v.frames++
}

// copyIn appends p to the arena, extending the tail iovec when the bytes
// land contiguously after it.
func (v *vecWriter) copyIn(p []byte) {
	for len(p) > 0 {
		if cap(v.arena) == len(v.arena) {
			v.spare = append(v.spare, v.arena)
			v.arena = make([]byte, 0, max(vecChunk, len(p)))
			v.tailIdx = -1
		}
		start := len(v.arena)
		n := copy(v.arena[start:cap(v.arena)], p)
		v.arena = v.arena[:start+n]
		if v.tailIdx >= 0 {
			v.bufs[v.tailIdx] = v.arena[v.tailStart:len(v.arena)]
		} else {
			v.bufs = append(v.bufs, v.arena[start:len(v.arena)])
			v.tailIdx = len(v.bufs) - 1
			v.tailStart = start
		}
		v.pending += n
		p = p[n:]
	}
}

// flush issues the gathered frames as one vectored write and resets the
// writer. The iovec list is consumed by net.Buffers.WriteTo (writev under
// the hood, looping only if the kernel accepts less than everything).
func (v *vecWriter) flush() error {
	if len(v.bufs) == 0 {
		return nil
	}
	v.out = v.bufs
	_, err := v.out.WriteTo(v.w)
	v.out = nil
	vecFlushes.Add(1)
	vecFrames.Add(uint64(v.frames))
	v.reset()
	return err
}

// drop discards queued frames without writing (close path).
func (v *vecWriter) drop() { v.reset() }

func (v *vecWriter) reset() {
	for _, m := range v.retained {
		m.Release()
	}
	v.retained = v.retained[:0]
	for i := range v.bufs {
		v.bufs[i] = nil
	}
	v.bufs = v.bufs[:0]
	if len(v.spare) > 0 {
		v.arena = v.spare[0][:0]
		for i := range v.spare {
			v.spare[i] = nil
		}
		v.spare = v.spare[:0]
	} else {
		v.arena = v.arena[:0]
	}
	v.tailIdx = -1
	v.pending = 0
	v.frames = 0
}
