package xdr

import (
	"errors"
	"io"
)

// Reusable encode/decode scratch. The paper's cost table (§5) attributes
// most of a CLAM call to message handling; on a modern runtime that cost
// is dominated by per-message allocation, so the hot paths rearm one
// growing buffer and one Stream per workspace instead of constructing
// fresh ones per call. See rpc.Scratch for the pooled composition.

// Buffer is a minimal growing byte buffer for encoders: an io.Writer
// whose backing array survives Reset, so repeated encodes into the same
// Buffer stop allocating once it has grown to the working-set size.
type Buffer struct {
	// B is the encoded payload so far. Callers may hand B to the wire
	// layer directly; it remains valid until the next Reset or Write.
	B []byte
}

// Write appends p, growing the backing array as needed.
func (b *Buffer) Write(p []byte) (int, error) {
	b.B = append(b.B, p...)
	return len(p), nil
}

// WriteString appends s without converting it to a byte slice first,
// letting Stream.String encode straight from the string's storage.
func (b *Buffer) WriteString(s string) (int, error) {
	b.B = append(b.B, s...)
	return len(s), nil
}

// Bytes returns the accumulated payload.
func (b *Buffer) Bytes() []byte { return b.B }

// Len reports the accumulated payload length.
func (b *Buffer) Len() int { return len(b.B) }

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() { b.B = b.B[:0] }

// Truncate discards all but the first n bytes, so a caller can roll back
// a partially encoded item (e.g. one failed call entry in a batch).
func (b *Buffer) Truncate(n int) {
	if n >= 0 && n <= len(b.B) {
		b.B = b.B[:n]
	}
}

// ErrExhausted reports a read past the end of a Reader's payload — the
// decode-side peer of io.ErrUnexpectedEOF for in-memory message bodies.
var ErrExhausted = errors.New("xdr: message body exhausted")

// Reader is an allocation-free io.Reader over a byte slice. Unlike
// bytes.Reader it can be rearmed with Reset, so a pooled decoder never
// allocates a reader per message.
type Reader struct {
	b []byte
	i int
}

// Reset rearms the reader over b.
func (r *Reader) Reset(b []byte) {
	r.b = b
	r.i = 0
}

// Read copies the next chunk of the payload into p.
func (r *Reader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, ErrExhausted
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.i }

// ResetEncode rearms s as an encoder writing to w, clearing the sticky
// error and the byte counters. It makes the zero Stream usable, so a
// long-lived workspace can hold a Stream by value. A *Buffer is written in
// place; any other writer gets the draining adapter.
func (s *Stream) ResetEncode(w io.Writer) {
	if b, ok := w.(*Buffer); ok {
		*s = Stream{op: Encode, buf: b}
		return
	}
	*s = Stream{op: Encode, buf: new(Buffer), w: w}
}

// ResetDecode rearms s as a decoder reading from r. A *Reader is read in
// place; any other reader gets the filling adapter.
func (s *Stream) ResetDecode(r io.Reader) {
	if rd, ok := r.(*Reader); ok {
		*s = Stream{op: Decode, rd: rd}
		return
	}
	*s = Stream{op: Decode, rd: new(Reader), r: r}
}
