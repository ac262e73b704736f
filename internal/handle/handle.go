// Package handle implements CLAM's object handles (ICDCS 1988, §3.5.1 and
// Figure 3.3).
//
// Object pointers never cross address spaces. When a pointer to a class
// instance leaves the server it is converted into a handle — "a capability
// for an object" containing an object identifier and a tag, "an arbitrary
// bit pattern for checking the validity of the handle". The server keeps,
// per object identifier, the class identifier, a version number, the tag,
// and the pointer to the object itself. When a client passes the handle
// back in, the tag in the table is compared with the tag in the handle and,
// only if they match, the real object's address is returned.
//
// The paper's three assumptions hold here too: each process has its own
// address space; objects are created dynamically; and an object pointer
// must be passed out of the server before a client attempts to pass it in
// (nil handles are special-cased).
package handle

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"clam/internal/xdr"
)

// ID names an object within one server's handle table. ID 0 is reserved
// for the nil handle.
type ID uint64

// Tag is the arbitrary bit pattern a handle must present to prove it was
// minted by this table.
type Tag uint64

// Handle is the client-visible capability for a server object.
type Handle struct {
	ID  ID
	Tag Tag
}

// Nil is the handle for a nil object pointer, "handled specially" per the
// paper.
var Nil = Handle{}

// IsNil reports whether h denotes the nil object.
func (h Handle) IsNil() bool { return h == Nil }

// String formats the handle for diagnostics.
func (h Handle) String() string {
	if h.IsNil() {
		return "handle(nil)"
	}
	return fmt.Sprintf("handle(%d,%#x)", uint64(h.ID), uint64(h.Tag))
}

// Bundle bidirectionally transfers the handle on s.
func (h *Handle) Bundle(s *xdr.Stream) error {
	id := uint64(h.ID)
	tag := uint64(h.Tag)
	s.Uint64(&id)
	s.Uint64(&tag)
	if s.Op() == xdr.Decode && s.Err() == nil {
		h.ID = ID(id)
		h.Tag = Tag(tag)
	}
	return s.Err()
}

// Entry is what the server stores per object identifier (Figure 3.3): "a
// class identifier, a version number and the tag, and a pointer to the
// object itself".
type Entry struct {
	ClassID uint32
	Version uint32
	Tag     Tag
	Obj     any
	// Dispatch is whatever the table's owner needs to dispatch a call on
	// the object — the server keeps the class's compiled stubs here, so
	// one lookup takes a call from handle to stub. The table only stores
	// it; nil when the owner minted the handle without it.
	Dispatch any
}

// Lookup errors.
var (
	// ErrUnknown means the object identifier names no live entry.
	ErrUnknown = errors.New("handle: unknown object identifier")
	// ErrStale means the identifier exists but the tag does not match —
	// a forged or revoked capability.
	ErrStale = errors.New("handle: tag mismatch")
)

// Table maps handles to objects for one server. The zero value is not
// usable; call NewTable.
type Table struct {
	mu      sync.RWMutex
	entries map[ID]*Entry
	byObj   map[any]ID // object identity → existing handle, so re-exporting is stable
	next    ID
	rng     *rand.Rand
	minter  func() uint64 // optional tag source replacing rng (SetTagMinter)
}

// NewTable returns an empty handle table with an unpredictably seeded tag
// generator.
func NewTable() *Table {
	var seed [16]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		// Fall back to a fixed seed; tags remain arbitrary bit patterns,
		// merely predictable, which only weakens forgery resistance.
		copy(seed[:], "clam-handle-seed")
	}
	return &Table{
		entries: make(map[ID]*Entry),
		byObj:   make(map[any]ID),
		rng: rand.New(rand.NewPCG(
			binary.LittleEndian.Uint64(seed[0:8]),
			binary.LittleEndian.Uint64(seed[8:16]),
		)),
	}
}

// Put registers obj (any pointer-like comparable value) and returns its
// handle. Registering the same object again returns the same handle, so an
// object passed out of the server twice compares equal on the client.
func (t *Table) Put(obj any, classID, version uint32) (Handle, error) {
	h, _, err := t.PutNew(obj, classID, version, nil)
	return h, err
}

// PutNew is Put that stores dispatch in a newly minted entry and reports
// whether the handle was minted by this call (false when obj was already
// registered). Callers that journal mints use it to record each capability
// exactly once.
func (t *Table) PutNew(obj any, classID, version uint32, dispatch any) (Handle, bool, error) {
	if obj == nil {
		return Nil, false, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byObj[obj]; ok {
		e := t.entries[id]
		return Handle{ID: id, Tag: e.Tag}, false, nil
	}
	t.next++
	id := t.next
	var tag Tag
	if t.minter != nil {
		tag = Tag(t.minter())
	} else {
		tag = Tag(t.rng.Uint64())
	}
	if tag == 0 {
		tag = 1 // tag 0 is reserved for the nil handle
	}
	t.entries[id] = &Entry{ClassID: classID, Version: version, Tag: tag, Obj: obj, Dispatch: dispatch}
	t.byObj[obj] = id
	return Handle{ID: id, Tag: tag}, true, nil
}

// Restore installs obj under a previously minted handle, preserving its
// (ID, Tag) capability — journal recovery re-binding client-held handles
// to freshly re-created objects. If obj is already registered under
// another ID the byObj mapping keeps the existing one (later Puts keep
// returning it); the restored entry still validates the old capability.
// The id allocator is advanced past h.ID so new mints never collide.
func (t *Table) Restore(h Handle, classID, version uint32, obj, dispatch any) {
	if h.IsNil() || obj == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[h.ID] = &Entry{ClassID: classID, Version: version, Tag: h.Tag, Obj: obj, Dispatch: dispatch}
	if _, ok := t.byObj[obj]; !ok {
		t.byObj[obj] = h.ID
	}
	if h.ID > t.next {
		t.next = h.ID
	}
}

// FloorID advances the id allocator so no future mint uses an identifier
// at or below id. Recovery calls it with the journaled maximum before
// any new handles are minted.
func (t *Table) FloorID(id ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > t.next {
		t.next = id
	}
}

// Lookup returns the handle registered for obj, if any.
func (t *Table) Lookup(obj any) (Handle, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.byObj[obj]
	if !ok {
		return Nil, false
	}
	return Handle{ID: id, Tag: t.entries[id].Tag}, true
}

// Get validates h and returns the object it names.
func (t *Table) Get(h Handle) (any, error) {
	e, err := t.Entry(h)
	if err != nil {
		return nil, err
	}
	return e.Obj, nil
}

// Entry validates h and returns a copy of its table entry.
func (t *Table) Entry(h Handle) (Entry, error) {
	if h.IsNil() {
		return Entry{}, fmt.Errorf("%w: nil handle", ErrUnknown)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[h.ID]
	if !ok {
		return Entry{}, fmt.Errorf("%w: id %d", ErrUnknown, uint64(h.ID))
	}
	if e.Tag != h.Tag {
		return Entry{}, fmt.Errorf("%w: id %d", ErrStale, uint64(h.ID))
	}
	return *e, nil
}

// Revoke removes h from the table, invalidating the capability. Passing a
// handle that fails validation is an error; revoking an already-revoked
// handle reports ErrUnknown.
func (t *Table) Revoke(h Handle) error {
	if h.IsNil() {
		return fmt.Errorf("%w: nil handle", ErrUnknown)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[h.ID]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknown, uint64(h.ID))
	}
	if e.Tag != h.Tag {
		return fmt.Errorf("%w: id %d", ErrStale, uint64(h.ID))
	}
	delete(t.entries, h.ID)
	delete(t.byObj, e.Obj)
	return nil
}

// RevokeObj removes the entry for obj if one exists, reporting whether it
// did. Used when a class instance is destroyed server-side.
func (t *Table) RevokeObj(obj any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.byObj[obj]
	if !ok {
		return false
	}
	delete(t.entries, id)
	delete(t.byObj, obj)
	return true
}

// Len reports the number of live entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// SetTagMinter replaces the table's random tag source with fn. Tags stay
// "an arbitrary bit pattern" (§3.5.1) to every consumer, but a minter can
// shape the pattern — a mesh member constrains new tags to the arc of the
// consistent-hash ring it owns, so a tag alone names its owning peer. A
// minter returning 0 falls back to tag 1 (the nil-handle reservation),
// like the random path. nil restores the default source.
func (t *Table) SetTagMinter(fn func() uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.minter = fn
}

// RevokeFunc removes every live entry whose object satisfies pred,
// reporting how many were revoked — bulk invalidation, e.g. every proxy
// handle riding a peer link that died.
func (t *Table) RevokeFunc(pred func(obj any) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, e := range t.entries {
		if pred(e.Obj) {
			delete(t.entries, id)
			delete(t.byObj, e.Obj)
			n++
		}
	}
	return n
}

// CountFunc reports how many live entries hold objects satisfying pred —
// e.g. how many entries are proxies for another server's objects.
func (t *Table) CountFunc(pred func(obj any) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, e := range t.entries {
		if pred(e.Obj) {
			n++
		}
	}
	return n
}
