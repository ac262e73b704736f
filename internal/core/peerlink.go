package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/rpc"
)

// The hop primitive. A peerLink is one other CLAM server this server holds
// a client connection to, together with everything a hop needs: the
// per-link translation cache mapping the peer's class ids to locally
// compiled stubs (proxy-handle re-minting), the circuit breaker gating its
// resurrect loop, and — through the *Remote entries that reference the
// link's client — the relay paths for forwarded calls and chained upcalls.
//
// Two arrangements are built from the same primitive:
//
//   - chain links (DialUpstream): the vertical arrangement, this server
//     stacked on a lower one, calls relayed down and upcalls chained up;
//   - mesh links (JoinMesh, mesh.go): the horizontal arrangement, N peers
//     sharing one consistent-hash object directory, any of them routing a
//     call to the owner and chaining the owner's upcalls back out through
//     whichever peer the client entered at.
//
// The forwarding machinery (forward.go) is identical for both — a hop is
// a hop; only membership and routing differ.

// linkRole distinguishes how a peer link participates in routing.
type linkRole uint8

const (
	// linkChain is a vertical upstream hop (DialUpstream/AttachUpstream).
	linkChain linkRole = iota
	// linkMesh is a horizontal mesh peer (JoinMesh).
	linkMesh
)

// peerLink is one peer server this server dialed, with the translation
// cache mapping the peer's class ids to locally compiled stubs.
type peerLink struct {
	c    *Client
	br   *breaker // nil unless WithUpstreamBreaker (always armed for mesh)
	role linkRole
	name string // mesh member name; empty for chain links

	mu      sync.Mutex
	classes map[uint32]*proxyClass
}

// Mesh links always arm a breaker — membership health is built on it —
// so these defaults apply when WithUpstreamBreaker was not configured.
const (
	meshBreakerThreshold = 5
	meshBreakerCooldown  = 5 * time.Second
)

// breaker is a per-link circuit breaker (WithUpstreamBreaker). After
// threshold consecutive failed reconnect attempts the circuit opens for
// cooldown: the resurrect loop stops dialing a flapping peer, and
// forwarded calls fail fast instead of queueing behind it. A successful
// reconnect closes the circuit and resets the failure count.
type breaker struct {
	threshold int
	cooldown  time.Duration
	opens     atomic.Uint64

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// allow reports whether a reconnect attempt may proceed (circuit closed
// or cooldown elapsed). Wired into the client's resurrect loop.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !time.Now().Before(b.openUntil)
}

// result records the outcome of one reconnect attempt, tripping the
// circuit after threshold consecutive failures.
func (b *breaker) result(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.fails = 0
		b.openUntil = time.Time{}
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.fails = 0
		b.openUntil = time.Now().Add(b.cooldown)
		b.opens.Add(1)
	}
}

// open reports whether the circuit is currently open (calls should fail
// fast rather than wait on the dead peer).
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Now().Before(b.openUntil)
}

// attachLink registers an already-dialed client connection as a peer link
// of the given role. Idempotent per client (the existing link is returned
// regardless of role). The server owns the client from here on and closes
// it on shutdown.
func (s *Server) attachLink(c *Client, role linkRole, name string) (*peerLink, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("clam: server closed")
	}
	for _, pl := range s.peers {
		if pl.c == c {
			s.mu.Unlock()
			return pl, nil
		}
	}
	pl := &peerLink{c: c, role: role, name: name, classes: make(map[uint32]*proxyClass)}
	threshold, cooldown := s.breakerThreshold, s.breakerCooldown
	if role == linkMesh && threshold == 0 {
		threshold, cooldown = meshBreakerThreshold, meshBreakerCooldown
	}
	if threshold > 0 {
		pl.br = &breaker{threshold: threshold, cooldown: cooldown}
		onResult := pl.br.result
		if role == linkMesh {
			// Membership health rides the breaker: every reconnect outcome
			// also updates the mesh directory's up/down view of this peer.
			onResult = func(ok bool) {
				pl.br.result(ok)
				s.meshLinkResult(pl, ok)
			}
		}
		c.setReconnectHooks(pl.br.allow, onResult)
	}
	s.peers = append(s.peers, pl)
	s.mu.Unlock()
	// Link declared multicast topics to the new peer outside s.mu: each
	// link is a subscribe round-trip down the wire (fanout.go).
	s.fan.linkNewPeer(pl)
	return pl, nil
}

// detachLink removes a dead peer link: it disappears from the peer list,
// its fan-out relay reservations are forgotten, any named *Remote entries
// riding its client are unpublished and their proxy handles revoked, and
// the client is closed. Used when a restarted mesh peer re-announces — the
// old link's session can never resume (the restarted server refuses its
// token), so the link is replaced rather than healed.
func (s *Server) detachLink(pl *peerLink) {
	s.mu.Lock()
	for i, cur := range s.peers {
		if cur == pl {
			s.peers = append(s.peers[:i], s.peers[i+1:]...)
			break
		}
	}
	var orphaned []string
	for name, obj := range s.named {
		if r, ok := obj.(*Remote); ok && r.c == pl.c {
			orphaned = append(orphaned, name)
		}
	}
	for _, name := range orphaned {
		delete(s.named, name)
	}
	s.mu.Unlock()
	s.fan.unlinkPeer(pl)
	// Proxy handles over the dead link are stale forever; revoke them so
	// re-imported objects mint fresh handles instead of resolving to a
	// client that can no longer carry calls.
	s.handles.RevokeFunc(func(obj any) bool {
		r, ok := obj.(*Remote)
		return ok && r.c == pl.c
	})
	pl.c.Close()
}

// linkFor returns the peer link owning client c, or nil.
func (s *Server) linkFor(c *Client) *peerLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pl := range s.peers {
		if pl.c == c {
			return pl
		}
	}
	return nil
}

// hasPeerLinks reports whether this server forwards to peer servers — the
// only case where answering a Sync involves a round trip.
func (s *Server) hasPeerLinks() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers) > 0
}

// snapshotLinks copies the peer-link list without holding s.mu across
// whatever the caller does per link.
func (s *Server) snapshotLinks() []*peerLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	links := make([]*peerLink, len(s.peers))
	copy(links, s.peers)
	return links
}

// syncPeerLinks flushes and round-trips every peer connection, so a
// client's Sync covers asynchronous calls this server relayed onward
// (§3.4's guarantee, extended across hops). chainOnly restricts the relay
// to chain links — set for Syncs that themselves arrived over a mesh
// link, because mesh edges form cycles (chains never do): the entry
// member relays the client's Sync mesh-wide, and every member receiving
// that relay syncs only what lies below it.
func (s *Server) syncPeerLinks(chainOnly bool) {
	for _, pl := range s.snapshotLinks() {
		if chainOnly && pl.role == linkMesh {
			continue
		}
		if err := pl.c.Sync(); err != nil {
			s.logf("clam: sync relay to peer failed: %v", err)
		}
	}
}

// cachedProxyClass searches the peer-link translation caches for a class
// id (used to answer Describe for classes this server never loaded, e.g.
// in 3+-hop chains).
func (s *Server) cachedProxyClass(classID uint32) *proxyClass {
	for _, pl := range s.snapshotLinks() {
		pl.mu.Lock()
		pc := pl.classes[classID]
		pl.mu.Unlock()
		if pc != nil {
			return pc
		}
	}
	return nil
}

// proxyClassFor resolves a peer server's class id to locally compiled
// stubs, asking the peer to describe the id on first sight. Class ids are
// per-server; the name+version pair is the portable identity the local
// library is searched by. The exact version is preferred; if the library
// only has other versions, the newest is used (the stub layout of
// coexisting versions must agree for forwarding to work, which holds for
// the method signatures — a genuinely incompatible revision would fail
// kind validation rather than corrupt the stream).
func (s *Server) proxyClassFor(pl *peerLink, classID, version uint32) (*proxyClass, error) {
	pl.mu.Lock()
	if pc, ok := pl.classes[classID]; ok {
		pl.mu.Unlock()
		return pc, nil
	}
	pl.mu.Unlock()

	name, ver, err := pl.c.DescribeClass(classID)
	if err != nil {
		return nil, fmt.Errorf("clam: describing peer class %d: %w", classID, err)
	}
	if version == 0 {
		version = ver
	}
	cls, err := s.lib.LookupExact(name, version)
	if err != nil {
		cls, err = s.lib.Lookup(name, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("clam: peer class %q v%d unknown to local library: %w", name, version, err)
	}
	stubs, err := rpc.CompileClass(s.reg, cls.Type, cls.Specs)
	if err != nil {
		return nil, fmt.Errorf("clam: compiling proxy stubs for %q: %w", name, err)
	}
	stubs.Class = name
	pc := &proxyClass{name: name, version: version, stubs: stubs}
	pl.mu.Lock()
	if prev, ok := pl.classes[classID]; ok {
		pc = prev
	} else {
		pl.classes[classID] = pc
	}
	pl.mu.Unlock()
	return pc, nil
}
