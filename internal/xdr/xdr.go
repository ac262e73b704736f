// Package xdr implements bidirectional, machine-independent data streams
// patterned after the Sun XDR filters that CLAM's bundlers are built on
// (Cohrs, Miller & Call, ICDCS 1988, §3.3 and Figure 3.2).
//
// A Stream is created in one of two operating modes, Encode or Decode. Every
// filter method is bidirectional: the same call either writes the value it is
// handed to the stream or overwrites that value with data read from the
// stream, depending on the stream's mode. This mirrors the paper's rule that
// a bundler "must be able to both bundle its first parameter or unbundle data
// from its machine independent form", so a single user-written bundler serves
// both directions.
//
// The wire format follows the XDR conventions: big-endian, with every item
// padded to a four-byte boundary.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Op selects the direction a Stream operates in.
type Op int

const (
	// Encode converts values to their machine-independent form.
	Encode Op = iota + 1
	// Decode converts machine-independent data back into values.
	Decode
)

// String returns the conventional XDR name for the operation.
func (op Op) String() string {
	switch op {
	case Encode:
		return "XDR_ENCODE"
	case Decode:
		return "XDR_DECODE"
	default:
		return fmt.Sprintf("xdr.Op(%d)", int(op))
	}
}

// Limits protecting a decoder from hostile or corrupt length prefixes.
const (
	// DefaultMaxBytes is the default cap on a variable-length opaque or
	// string, and — because the wire layer shares the limit (see
	// wire.BodyLimit) — on a whole frame body.
	DefaultMaxBytes = 16 << 20
	// MaxElems is the largest element count a Stream will decode for a
	// counted array.
	MaxElems = 1 << 20
)

// maxBytes is the configurable byte-length limit, shared by this package's
// decoders and the frame layer so an oversized payload is rejected before
// it is ever allocated or read, not mid-decode.
var maxBytes atomic.Int64

func init() { maxBytes.Store(DefaultMaxBytes) }

// MaxBytesLimit reports the current byte-length limit.
func MaxBytesLimit() int { return int(maxBytes.Load()) }

// SetMaxBytesLimit sets the byte-length limit shared by the xdr and wire
// layers and returns the previous value. n <= 0 restores the default.
// Raise it only in deployments that genuinely ship frames past 16 MiB;
// both peers must agree or large frames fail on one side only.
func SetMaxBytesLimit(n int) (prev int) {
	if n <= 0 {
		n = DefaultMaxBytes
	}
	return int(maxBytes.Swap(int64(n)))
}

// Common stream errors.
var (
	ErrTooLarge = errors.New("xdr: length prefix exceeds limit")
	errNoReader = errors.New("xdr: decode on encode-only stream")
	errNoWriter = errors.New("xdr: encode on decode-only stream")
)

// Stream is a bidirectional XDR filter stream. The zero value is not usable;
// construct one with NewEncoder or NewDecoder, or rearm one with
// ResetEncode or ResetDecode.
//
// A Stream encodes into a *Buffer and decodes from a *Reader, touching
// their bytes directly by slice index: a word costs one append or one
// bounds check, not a call through an io interface. Handed any other
// io.Writer or io.Reader it works as an adapter over the same code — a
// private Buffer is drained into the writer after every filter call, a
// private Reader is filled from the reader before every take — so the
// filters exist once.
//
// Errors are sticky: after the first failure every subsequent filter call
// returns the same error and leaves its argument untouched, so a bundler may
// chain many filter calls and check the error once at the end.
type Stream struct {
	op  Op
	buf *Buffer   // encode target
	rd  *Reader   // decode source
	w   io.Writer // adapter mode: buf is drained here after every filter call
	r   io.Reader // adapter mode: rd is filled from here before every take
	err error
	// nw and nr count payload bytes written and read, used by tests and by
	// the wire layer to account for message sizes.
	nw int
	nr int
}

// NewEncoder returns a Stream that bundles values into w.
func NewEncoder(w io.Writer) *Stream {
	s := new(Stream)
	s.ResetEncode(w)
	return s
}

// NewDecoder returns a Stream that unbundles values from r.
func NewDecoder(r io.Reader) *Stream {
	s := new(Stream)
	s.ResetDecode(r)
	return s
}

// Op reports the direction of the stream. Bundlers use it for the rare
// asymmetric step, such as allocating space for a result while decoding
// (Figure 3.2 of the paper).
func (s *Stream) Op() Op { return s.op }

// Err returns the first error encountered by the stream, if any.
func (s *Stream) Err() error { return s.err }

// SetErr records err as the stream's sticky error if none is set. Bundlers
// use it to report semantic failures discovered mid-bundle.
func (s *Stream) SetErr(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// Written returns the number of payload bytes encoded so far.
func (s *Stream) Written() int { return s.nw }

// ReadCount returns the number of payload bytes decoded so far.
func (s *Stream) ReadCount() int { return s.nr }

// put appends p to the message being encoded.
func put[T ~[]byte | ~string](s *Stream, p T) {
	if s.err != nil {
		return
	}
	if s.buf == nil {
		s.err = errNoWriter
		return
	}
	s.buf.B = append(s.buf.B, p...)
	s.nw += len(p)
	s.drain()
}

// drain is the encode adapter: it hands what the last filter call appended
// to the io.Writer behind the stream. A no-op on a Buffer-backed stream.
func (s *Stream) drain() {
	if s.w == nil || len(s.buf.B) == 0 {
		return
	}
	_, err := s.w.Write(s.buf.B)
	s.buf.B = s.buf.B[:0]
	if err != nil {
		s.err = fmt.Errorf("xdr: write: %w", err)
	}
}

// take returns the next n bytes of the message being decoded, as a view
// into it, or nil once the stream has failed. Every decode goes through
// here, so nothing is ever read past the end of the body.
func (s *Stream) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	rd := s.rd
	if rd == nil {
		s.err = errNoReader
		return nil
	}
	if s.r != nil {
		// Decode adapter: stage exactly the bytes this take needs.
		if cap(rd.b) < n {
			rd.b = make([]byte, n)
		}
		rd.b, rd.i = rd.b[:n], 0
		if m, err := io.ReadFull(s.r, rd.b); err != nil {
			s.nr += m
			s.err = fmt.Errorf("xdr: read: %w", err)
			return nil
		}
	}
	if n > len(rd.b)-rd.i {
		s.err = fmt.Errorf("xdr: read: %w", ErrExhausted)
		return nil
	}
	p := rd.b[rd.i : rd.i+n : rd.i+n]
	rd.i += n
	s.nr += n
	return p
}

// badOp records a filter call on a stream that was never armed.
func (s *Stream) badOp() {
	s.SetErr(fmt.Errorf("xdr: invalid op %d", int(s.op)))
}

// word transfers one four-byte big-endian word.
func (s *Stream) word(v *uint32) {
	switch s.op {
	case Encode:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], *v)
		put(s, b[:])
	case Decode:
		if b := s.take(4); b != nil {
			*v = binary.BigEndian.Uint32(b)
		}
	default:
		s.badOp()
	}
}

// dword transfers one eight-byte big-endian doubleword (XDR hyper).
func (s *Stream) dword(v *uint64) {
	switch s.op {
	case Encode:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], *v)
		put(s, b[:])
	case Decode:
		if b := s.take(8); b != nil {
			*v = binary.BigEndian.Uint64(b)
		}
	default:
		s.badOp()
	}
}

// Uint32 transfers a 32-bit unsigned integer.
func (s *Stream) Uint32(v *uint32) error {
	s.word(v)
	return s.err
}

// Int32 transfers a 32-bit signed integer.
func (s *Stream) Int32(v *int32) error {
	u := uint32(*v)
	s.word(&u)
	if s.op == Decode && s.err == nil {
		*v = int32(u)
	}
	return s.err
}

// Uint64 transfers a 64-bit unsigned integer (XDR unsigned hyper).
func (s *Stream) Uint64(v *uint64) error {
	s.dword(v)
	return s.err
}

// Int64 transfers a 64-bit signed integer (XDR hyper).
func (s *Stream) Int64(v *int64) error {
	u := uint64(*v)
	s.dword(&u)
	if s.op == Decode && s.err == nil {
		*v = int64(u)
	}
	return s.err
}

// Int transfers a Go int as a 64-bit quantity so the format is identical on
// all word sizes.
func (s *Stream) Int(v *int) error {
	x := int64(*v)
	s.Int64(&x)
	if s.op == Decode && s.err == nil {
		*v = int(x)
	}
	return s.err
}

// Uint transfers a Go uint as a 64-bit quantity.
func (s *Stream) Uint(v *uint) error {
	x := uint64(*v)
	s.Uint64(&x)
	if s.op == Decode && s.err == nil {
		*v = uint(x)
	}
	return s.err
}

// Short transfers a 16-bit signed integer. XDR carries shorts in a full
// word, exactly as the VAX CLAM implementation did for the Point type of
// Figure 3.1.
func (s *Stream) Short(v *int16) error {
	x := int32(*v)
	s.Int32(&x)
	if s.op == Decode && s.err == nil {
		*v = int16(x)
	}
	return s.err
}

// Ushort transfers a 16-bit unsigned integer in a full word.
func (s *Stream) Ushort(v *uint16) error {
	x := uint32(*v)
	s.Uint32(&x)
	if s.op == Decode && s.err == nil {
		*v = uint16(x)
	}
	return s.err
}

// Byte transfers a single byte in a full word, per XDR padding rules.
func (s *Stream) Byte(v *byte) error {
	x := uint32(*v)
	s.Uint32(&x)
	if s.op == Decode && s.err == nil {
		*v = byte(x)
	}
	return s.err
}

// Bool transfers a boolean as a word holding 0 or 1.
func (s *Stream) Bool(v *bool) error {
	var x uint32
	if *v {
		x = 1
	}
	s.word(&x)
	if s.op == Decode && s.err == nil {
		switch x {
		case 0:
			*v = false
		case 1:
			*v = true
		default:
			s.SetErr(fmt.Errorf("xdr: bool encoding %d out of range", x))
		}
	}
	return s.err
}

// Float32 transfers an IEEE-754 single-precision float.
func (s *Stream) Float32(v *float32) error {
	x := math.Float32bits(*v)
	s.word(&x)
	if s.op == Decode && s.err == nil {
		*v = math.Float32frombits(x)
	}
	return s.err
}

// Float64 transfers an IEEE-754 double-precision float.
func (s *Stream) Float64(v *float64) error {
	x := math.Float64bits(*v)
	s.dword(&x)
	if s.op == Decode && s.err == nil {
		*v = math.Float64frombits(x)
	}
	return s.err
}

// pad holds up to three zero bytes for four-byte alignment.
var pad [4]byte

// padLen is the alignment padding that follows n bytes of data.
func padLen(n int) int { return -n & 3 }

// Opaque transfers exactly len(p) raw bytes plus alignment padding. The
// caller fixes the length on both sides, as with XDR fixed-length opaque
// data.
func (s *Stream) Opaque(p []byte) error {
	switch s.op {
	case Encode:
		put(s, p)
		put(s, pad[:padLen(len(p))])
	case Decode:
		if b := s.view(len(p)); b != nil {
			copy(p, b)
		}
	default:
		s.badOp()
	}
	return s.err
}

// view takes n bytes of data and the padding that follows them, returning
// the data as a view into the message.
func (s *Stream) view(n int) []byte {
	b := s.take(n + padLen(n))
	if b == nil {
		return nil
	}
	return b[:n:n]
}

// counted decodes a length word, checks it against the byte limit, and
// returns that many bytes as a view into the message. The view is valid
// only as long as the message body is: copy what must outlive it.
func (s *Stream) counted() []byte {
	var n uint32
	s.word(&n)
	if s.err != nil {
		return nil
	}
	if int64(n) > maxBytes.Load() {
		s.SetErr(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
		return nil
	}
	return s.view(int(n))
}

// Bytes transfers a variable-length byte slice: a length word followed by
// the data and padding. While decoding, the slice is reallocated to the
// received length; a nil slice decodes as nil only when the length is zero.
func (s *Stream) Bytes(p *[]byte) error {
	if s.op != Decode {
		n := uint32(len(*p))
		s.word(&n)
		return s.Opaque(*p)
	}
	b := s.counted()
	if s.err != nil {
		return s.err
	}
	if cap(*p) >= len(b) {
		*p = (*p)[:len(b)]
	} else {
		*p = make([]byte, len(b))
	}
	copy(*p, b)
	return nil
}

// String transfers a string as a counted sequence of bytes, copied straight
// from (or into) the string's storage.
func (s *Stream) String(v *string) error {
	switch s.op {
	case Encode:
		n := uint32(len(*v))
		s.word(&n)
		put(s, *v)
		put(s, pad[:padLen(len(*v))])
	case Decode:
		if b := s.counted(); s.err == nil {
			*v = string(b)
		}
	default:
		s.badOp()
	}
	return s.err
}

// StringView decodes a string without copying it: the result is a view
// into the message body, valid only as long as the body is. The call
// dispatcher uses it to look a method name up (m[string(b)] does not
// allocate) without building a string per call.
func (s *Stream) StringView() ([]byte, error) {
	if s.op != Decode {
		s.SetErr(errNoReader)
		return nil, s.err
	}
	return s.counted(), s.err
}

// Len transfers an element count for a counted array, enforcing MaxElems on
// decode. On encode the caller passes the count to write; on decode the
// count is overwritten with the received value.
func (s *Stream) Len(n *int) error {
	x := uint32(*n)
	s.word(&x)
	if s.err != nil {
		return s.err
	}
	if s.op == Decode {
		if x > MaxElems {
			s.SetErr(fmt.Errorf("%w: %d elements", ErrTooLarge, x))
			return s.err
		}
		*n = int(x)
	}
	return s.err
}
