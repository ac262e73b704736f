// Upcall fan-out: one lower-layer event, many registered observers.
//
// The paper's RUC mechanism is strictly point-to-point — each RUC object
// holds ONE client procedure pointer (§3.5.2) — yet its motivating
// example, a window system pushing events to interested parties, is
// naturally one-to-many. This file adds the broadcast path on top of the
// same machinery: a topic is a multicast-capable procedure declared with
// Server.RegisterMulticast, subscribers register ordinary procedure
// pointers against it (through the built-in "fanout" class, so the wire
// protocol is untouched), and Server.Publish fans one event out to every
// live subscription.
//
// Registrations live in a sharded table (internal/ruc.Sharded) keyed by
// the subscriber's handle tag, so register/unregister churn stays O(1)
// and never serializes against delivery. Each subscription owns a
// bounded event queue drained by an on-demand goroutine; deliveries ride
// the per-session upcall channel, so the §4.4 one-upcall-per-client gate
// and the slow-consumer eviction machinery apply unchanged. Queues reuse
// the upcall package's overload policies (DropOldest, Block, Queue) and
// coalesce redundant pending events per subscriber.
//
// Across peer servers, fan-out multiplies in the tree rather than
// relaying N copies through one hop: this server subscribes ONCE per
// peer-link topic and republishes each received event to its own
// subscribers (linkTopicPeer), the HAM insight that message-path cost,
// not marshaling, dominates at scale. Chain links re-relay upward
// indefinitely (a 3-level chain forwards twice); mesh links mark their
// subscriptions as relays, and an event that arrived FROM a mesh peer is
// never republished over relay subscriptions — each event crosses each
// mesh edge exactly once, so a full mesh cannot loop.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"clam/internal/dynload"
	"clam/internal/invoke"
	"clam/internal/ruc"
	"clam/internal/upcall"
)

// fanoutState is the server's multicast registry: declared topics plus
// the sharded subscription table.
type fanoutState struct {
	srv  *Server
	subs *ruc.Sharded

	mu     sync.Mutex
	topics map[string]*fanoutTopic
	closed bool
}

func newFanoutState(srv *Server, shards int) *fanoutState {
	return &fanoutState{
		srv:    srv,
		subs:   ruc.NewSharded(shards),
		topics: make(map[string]*fanoutTopic),
	}
}

// fanoutTopic is one declared multicast procedure.
type fanoutTopic struct {
	name     string
	ft       reflect.Type
	coalesce bool
	policy   upcall.Policy
	maxQueue int

	mu     sync.Mutex
	linked map[*peerLink]uint64 // peer link → its remote subscription id
}

// fanEvent is one published occurrence: the raw arguments for coalescing
// comparison and the converted values ready for delivery.
type fanEvent struct {
	raw  []any
	args []reflect.Value
}

// fanSub is the per-subscription delivery state: a bounded pending-event
// queue plus the drain flag that guarantees at most one delivery
// goroutine (and hence per-subscriber FIFO order).
type fanSub struct {
	top *fanoutTopic
	sub *ruc.Sub

	mu       sync.Mutex
	cond     *sync.Cond // signals Block-policy publishers when space frees
	queue    []fanEvent
	draining bool
	closed   bool
}

// MulticastOption configures a topic declared with RegisterMulticast.
type MulticastOption func(*fanoutTopic)

// WithCoalesce makes the topic last-event-wins: a newly published event
// replaces a subscriber's pending (not yet delivered) tail event instead
// of queueing behind it. Right for state-valued events — window damage
// regions, latest sensor reading — where a stale intermediate value is
// worthless once a newer one exists.
func WithCoalesce() MulticastOption {
	return func(t *fanoutTopic) { t.coalesce = true }
}

// WithFanoutQueue bounds each subscriber's pending-event queue (default
// upcall.DefaultMaxQueue). Values < 1 are treated as 1.
func WithFanoutQueue(n int) MulticastOption {
	return func(t *fanoutTopic) {
		if n < 1 {
			n = 1
		}
		t.maxQueue = n
	}
}

// WithFanoutPolicy selects what happens when a subscriber's queue is
// full: upcall.DropOldest (the default) evicts the stalest pending
// event, upcall.Block makes Publish wait for the slow subscriber —
// backpressure instead of loss — and upcall.Queue rejects the new event
// for that subscriber. upcall.Discard is not meaningful here (an
// unsubscribed topic simply has no queue) and selects DropOldest.
func WithFanoutPolicy(p upcall.Policy) MulticastOption {
	return func(t *fanoutTopic) {
		switch p {
		case upcall.Block, upcall.Queue:
			t.policy = p
		default:
			t.policy = upcall.DropOldest
		}
	}
}

// RegisterMulticast declares topic as a multicast procedure: prototype's
// func type defines the event's parameters (results are ignored), the
// run-time analogue of §4.1's typechecked registration parameters.
// Clients subscribe with Client.Subscribe, server-local code with
// SubscribeFunc, and Publish fans events out to all of them.
//
// If this server has attached upstream (lower) servers that declare the
// same topic, it also subscribes once per upstream, republishing each
// received event locally — the fan-out tree. Declare topics on the lower
// tier before the middle tier for the link to form at registration time;
// upstreams attached later are linked automatically.
func (s *Server) RegisterMulticast(topic string, prototype any, opts ...MulticastOption) error {
	ft := reflect.TypeOf(prototype)
	if ft == nil || ft.Kind() != reflect.Func {
		return fmt.Errorf("clam: multicast prototype for %q must be a func, got %T", topic, prototype)
	}
	if ft.IsVariadic() {
		return fmt.Errorf("clam: variadic multicast prototype %s not supported", ft)
	}
	t := &fanoutTopic{
		name:     topic,
		ft:       ft,
		policy:   upcall.DropOldest,
		maxQueue: upcall.DefaultMaxQueue,
		linked:   make(map[*peerLink]uint64),
	}
	for _, o := range opts {
		o(t)
	}
	f := s.fan
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("clam: server closed")
	}
	if _, dup := f.topics[topic]; dup {
		f.mu.Unlock()
		return fmt.Errorf("clam: multicast topic %q already registered", topic)
	}
	f.topics[topic] = t
	f.mu.Unlock()

	for _, pl := range s.snapshotLinks() {
		f.linkTopicPeer(t, pl)
	}
	return nil
}

// Publish fans one event out to every live subscription of topic and
// reports how many subscribers it was queued (or coalesced) for. Args
// are checked against the topic's prototype exactly as upcall.Post
// checks a handler's parameters.
//
// Publish enqueues; deliveries proceed asynchronously over each
// subscriber's upcall channel, FIFO per subscriber, unordered across
// subscribers. Under upcall.Block it waits for slow subscribers with
// full queues (releasing its executor slot like any blocking handler);
// under the other policies it never blocks on a subscriber.
func (s *Server) Publish(topic string, args ...any) (int, error) {
	t := s.fan.topic(topic)
	if t == nil {
		return 0, fmt.Errorf("clam: publish to unregistered topic %q", topic)
	}
	vals, err := upcall.ConvertArgs(t.ft, args)
	if err != nil {
		return 0, err
	}
	return s.fan.publish(t, args, vals), nil
}

// SubscribeFunc registers a server-local func as a subscriber of topic —
// the lower level object "cannot distinguish between registration
// requests from local objects and those from remote objects" (§4.1).
// The returned id cancels the subscription via UnsubscribeFunc.
func (s *Server) SubscribeFunc(topic string, fn any) (uint64, error) {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.Kind() != reflect.Func || v.IsNil() {
		return 0, fmt.Errorf("clam: subscriber is not a func: %T", fn)
	}
	t := s.fan.topic(topic)
	if t == nil {
		return 0, fmt.Errorf("clam: subscribe to unregistered topic %q", topic)
	}
	vt := v.Type()
	if vt.NumIn() != t.ft.NumIn() || vt.IsVariadic() {
		return 0, fmt.Errorf("clam: subscriber %s does not match topic prototype %s", vt, t.ft)
	}
	for i := 0; i < vt.NumIn(); i++ {
		if !t.ft.In(i).AssignableTo(vt.In(i)) {
			return 0, fmt.Errorf("clam: subscriber %s does not match topic prototype %s", vt, t.ft)
		}
	}
	return s.fan.subscribe(topic, 0, 0, &localCaller{fn: v, plan: invoke.Compile(vt, 0)}, false)
}

// UnsubscribeFunc cancels a SubscribeFunc subscription, reporting whether
// it existed. Pending undelivered events are discarded (counted as
// QueueDropsClosed).
func (s *Server) UnsubscribeFunc(topic string, id uint64) bool {
	_, ok := s.fan.unsubscribe(topic, id, id)
	return ok
}

// localCaller delivers fan-out events to a server-local subscriber by
// direct call, the degenerate single-address-space case of ruc.Caller.
type localCaller struct {
	fn   reflect.Value
	plan *invoke.Plan
}

func (l *localCaller) Upcall(procID uint64, ft reflect.Type, args []reflect.Value) (rets []reflect.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("clam: local subscriber panicked: %v", r)
		}
	}()
	f := l.plan.Frame()
	defer f.Release()
	f.Set(args)
	return f.Call(l.fn)
}

func (f *fanoutState) topic(name string) *fanoutTopic {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.topics[name]
}

func (f *fanoutState) topicCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.topics)
}

// subscribe creates the subscription and its delivery state. key selects
// the shard (0 lets the table substitute the subscription id). relay
// marks the subscription as a peer's tree-relay tap (see publishVia).
func (f *fanoutState) subscribe(topic string, key, procID uint64, caller ruc.Caller, relay bool) (uint64, error) {
	t := f.topic(topic)
	if t == nil {
		return 0, fmt.Errorf("clam: subscribe to unregistered topic %q", topic)
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return 0, errors.New("clam: server closed")
	}
	sub := &ruc.Sub{Key: key, Topic: topic, ProcID: procID, FuncType: t.ft, Caller: caller, Relay: relay}
	fs := &fanSub{top: t, sub: sub}
	fs.cond = sync.NewCond(&fs.mu)
	sub.State = fs
	return f.subs.Add(sub), nil
}

// unsubscribe removes subscription (topic, id) under shard key, retiring
// its queue, and returns the client procedure id it delivered to.
func (f *fanoutState) unsubscribe(topic string, key, id uint64) (uint64, bool) {
	sub := f.subs.Remove(topic, key, id)
	if sub == nil {
		return 0, false
	}
	if fs, ok := sub.State.(*fanSub); ok {
		fs.close(f)
	}
	return sub.ProcID, true
}

// publish fans ev out to the topic's current subscribers, returning how
// many accepted it (queued or coalesced).
func (f *fanoutState) publish(t *fanoutTopic, raw []any, args []reflect.Value) int {
	return f.publishVia(t, raw, args, false)
}

// publishVia is publish with provenance: fromMesh marks an event that
// arrived over a mesh peer link. Such an event is delivered to every
// local subscriber but NOT to relay-marked subscriptions — the taps mesh
// peers hold here — because each mesh peer received its own copy directly
// from the origin. Without the skip, a full mesh republishes forever
// (A→B, B's relay→A, A's relay→B, …). Chain relays are unmarked, so an
// event still climbs a vertical chain hop by hop.
func (f *fanoutState) publishVia(t *fanoutTopic, raw []any, args []reflect.Value, fromMesh bool) int {
	f.srv.metrics.fanPublished.Add(1)
	if t.policy == upcall.Block {
		// A Block-policy publisher may wait on a full subscriber queue;
		// release the executor slot like any other blocking handler.
		xit := f.srv.exec.yieldCurrent()
		defer f.srv.exec.resume(xit)
	}
	ev := fanEvent{raw: raw, args: args}
	n := 0
	for _, sub := range f.subs.Snapshot(t.name) {
		if fromMesh && sub.Relay {
			continue
		}
		fs, ok := sub.State.(*fanSub)
		if ok && fs.enqueue(f, ev) {
			n++
		}
	}
	return n
}

// enqueue places ev on the subscriber's queue per the topic's coalescing
// rule and overload policy, reporting whether the subscriber will (still)
// observe it.
func (fs *fanSub) enqueue(f *fanoutState, ev fanEvent) bool {
	t := fs.top
	fs.mu.Lock()
	for {
		if fs.closed {
			fs.mu.Unlock()
			return false
		}
		if n := len(fs.queue); n > 0 {
			tail := &fs.queue[n-1]
			if t.coalesce {
				// Last-event-wins: the pending tail is superseded before
				// anyone saw it.
				*tail = ev
				f.srv.metrics.fanCoalesced.Add(1)
				fs.mu.Unlock()
				return true
			}
			if reflect.DeepEqual(tail.raw, ev.raw) {
				// Identical pending event: delivering both tells the
				// subscriber nothing new.
				f.srv.metrics.fanCoalesced.Add(1)
				fs.mu.Unlock()
				return true
			}
		}
		if len(fs.queue) < t.maxQueue {
			break
		}
		switch t.policy {
		case upcall.Block:
			fs.cond.Wait()
		case upcall.Queue:
			f.srv.metrics.fanDropsNewest.Add(1)
			fs.mu.Unlock()
			return false
		default: // DropOldest
			fs.queue = append(fs.queue[:0], fs.queue[1:]...)
			f.srv.metrics.fanDropsOldest.Add(1)
		}
	}
	fs.queue = append(fs.queue, ev)
	if !fs.draining {
		fs.draining = true
		go fs.drain(f)
	}
	fs.mu.Unlock()
	return true
}

// drain delivers the subscriber's queue in order, one upcall at a time —
// the single drain goroutine per subscription is what makes delivery
// FIFO per subscriber. It stands down (leaving the queue intact) when
// the subscriber's session is parked awaiting resurrection, and exits
// when the queue empties or the subscription closes.
func (fs *fanSub) drain(f *fanoutState) {
	for {
		fs.mu.Lock()
		if fs.closed || len(fs.queue) == 0 {
			fs.draining = false
			fs.mu.Unlock()
			return
		}
		if down, ok := fs.sub.Caller.(interface{ linkIsDown() bool }); ok && down.linkIsDown() {
			// Parked session (PR 5 resurrection): hold the queue rather
			// than burn it against a dead link. resumeCaller restarts the
			// drain when the session returns.
			fs.draining = false
			fs.mu.Unlock()
			return
		}
		ev := fs.queue[0]
		copy(fs.queue, fs.queue[1:])
		fs.queue = fs.queue[:len(fs.queue)-1]
		fs.cond.Broadcast() // a Block-policy publisher may enqueue now
		fs.mu.Unlock()

		if _, err := fs.sub.Caller.Upcall(fs.sub.ProcID, fs.sub.FuncType, ev.args); err != nil {
			// At-most-once: a failed delivery is not retried, so a
			// resurrected subscriber never sees duplicates.
			f.srv.metrics.fanDeliveryFails.Add(1)
		} else {
			f.srv.metrics.fanDelivered.Add(1)
		}
	}
}

// kick restarts the drain if events are pending and no drainer runs —
// the resume-side half of the parked-session handshake.
func (fs *fanSub) kick(f *fanoutState) {
	fs.mu.Lock()
	if !fs.closed && !fs.draining && len(fs.queue) > 0 {
		fs.draining = true
		go fs.drain(f)
	}
	fs.mu.Unlock()
}

// close retires the subscription's delivery state, discarding pending
// events and releasing any Block-policy publishers waiting on it.
func (fs *fanSub) close(f *fanoutState) {
	fs.mu.Lock()
	if !fs.closed {
		fs.closed = true
		if n := len(fs.queue); n > 0 {
			f.srv.metrics.fanDropsClosed.Add(uint64(n))
		}
		fs.queue = nil
		fs.cond.Broadcast()
	}
	fs.mu.Unlock()
}

// dropCaller retires every subscription delivered over sess — the
// subscriber departed for good (evicted, or closed without a resume
// window). Parked sessions are NOT dropped; their subscriptions survive
// resurrection exactly like their RUC registrations.
func (f *fanoutState) dropCaller(c ruc.Caller) {
	if f == nil {
		return
	}
	for _, sub := range f.subs.DropCaller(c) {
		if fs, ok := sub.State.(*fanSub); ok {
			fs.close(f)
		}
	}
}

// resumeCaller restarts parked drains after a session resurrects.
func (f *fanoutState) resumeCaller(c ruc.Caller) {
	if f == nil {
		return
	}
	for _, sub := range f.subs.ByCaller(c) {
		if fs, ok := sub.State.(*fanSub); ok {
			fs.kick(f)
		}
	}
}

// close shuts fan-out down with the server: no new topics or
// subscriptions, all queues retired, Block-policy publishers released.
func (f *fanoutState) close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	for _, topic := range f.subs.Topics() {
		for _, sub := range f.subs.Snapshot(topic) {
			if fs, ok := sub.State.(*fanSub); ok {
				fs.close(f)
			}
		}
	}
}

// linkNewPeer links every declared topic to a freshly attached peer link
// (the attachLink half of tree formation).
func (f *fanoutState) linkNewPeer(pl *peerLink) {
	if f == nil {
		return
	}
	f.mu.Lock()
	topics := make([]*fanoutTopic, 0, len(f.topics))
	for _, t := range f.topics {
		topics = append(topics, t)
	}
	f.mu.Unlock()
	for _, t := range topics {
		f.linkTopicPeer(t, pl)
	}
}

// linkTopicPeer subscribes this server ONCE to topic t on the peer and
// republishes each received event to local subscribers. This is the
// fan-out tree: the peer sends one event per hop, and each hop multiplies
// it — N subscribers cost the peer one delivery, not N. Idempotent per
// (topic, link). Over a mesh link the subscription is relay-marked on the
// peer and the republish carries mesh provenance, so events cross each
// mesh edge exactly once (see publishVia). If the peer does not declare
// the topic (yet), the link is skipped with a log line; declare
// lower-tier topics before upper-tier ones.
func (f *fanoutState) linkTopicPeer(t *fanoutTopic, pl *peerLink) {
	t.mu.Lock()
	if _, done := t.linked[pl]; done {
		t.mu.Unlock()
		return
	}
	t.linked[pl] = 0 // reserve while the subscribe round-trips
	t.mu.Unlock()

	fromMesh := pl.role == linkMesh
	relay := reflect.MakeFunc(t.ft, func(args []reflect.Value) []reflect.Value {
		f.srv.metrics.fanRelayed.Add(1)
		raw := make([]any, len(args))
		for i, a := range args {
			raw[i] = a.Interface()
		}
		f.publishVia(t, raw, args, fromMesh)
		out := make([]reflect.Value, t.ft.NumOut())
		for i := range out {
			out[i] = reflect.Zero(t.ft.Out(i))
		}
		return out
	})
	id, err := pl.c.subscribe(t.name, relay.Interface(), fromMesh)
	if err != nil {
		f.srv.logf("clam: linking multicast topic %q to peer: %v", t.name, err)
		t.mu.Lock()
		delete(t.linked, pl)
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	t.linked[pl] = id
	t.mu.Unlock()
}

// unlinkPeer forgets a detached link's topic reservations, so a fresh
// link to a restarted peer re-forms the tree instead of being treated as
// already linked. The dead link's remote subscription needs no teardown —
// it died with the peer's session.
func (f *fanoutState) unlinkPeer(pl *peerLink) {
	if f == nil {
		return
	}
	f.mu.Lock()
	topics := make([]*fanoutTopic, 0, len(f.topics))
	for _, t := range f.topics {
		topics = append(topics, t)
	}
	f.mu.Unlock()
	for _, t := range topics {
		t.mu.Lock()
		delete(t.linked, pl)
		t.mu.Unlock()
	}
}

// --- the built-in "fanout" class ---------------------------------------------------

// FanoutClass is the loadable class through which remote clients manage
// multicast subscriptions — registration as just another upcall-bearing
// class method, so the wire protocol needs no new message types. Every
// server registers it automatically; clients normally use the
// Client.Subscribe / Client.Unsubscribe wrappers rather than loading it
// by hand.
type FanoutClass struct {
	srv    *Server
	sessID uint64
}

// shardKey derives the subscription shard from this instance's handle
// tag — "an arbitrary bit pattern" (§3.5.1), uniformly distributed and
// stable for the instance's life, so all of one client's subscription
// operations land on one shard.
func (f *FanoutClass) shardKey() uint64 {
	h, err := f.srv.handles.Put(f, 0, 0)
	if err != nil {
		return 0 // keyless: the table shards by subscription id instead
	}
	return uint64(h.Tag)
}

// Subscribe registers the client procedure procID as a subscriber of
// topic and returns the subscription id.
func (f *FanoutClass) Subscribe(topic string, procID uint64) (uint64, error) {
	if f.sessID == 0 {
		return 0, errors.New("clam: fanout subscribe requires a client session; server code uses SubscribeFunc")
	}
	sess := f.srv.sessionByID(f.sessID)
	if sess == nil {
		return 0, errors.New("clam: subscribing session is gone")
	}
	key := f.shardKey()
	id, err := f.srv.fan.subscribe(topic, key, procID, sess, false)
	if err != nil {
		return 0, err
	}
	f.srv.journalSubscribe(id, key, topic, procID, f.sessID)
	return id, nil
}

// SubscribeRelay is Subscribe for a mesh peer's fan-out tap: the
// subscription is relay-marked, so events that arrived here over a mesh
// link are not fanned back out through it (publishVia). Relay
// subscriptions are deliberately NOT journaled — a rejoining peer
// re-links its topics itself, and resurrecting a tap for a peer whose
// link died with the crash would deliver into the void.
func (f *FanoutClass) SubscribeRelay(topic string, procID uint64) (uint64, error) {
	if f.sessID == 0 {
		return 0, errors.New("clam: fanout subscribe requires a client session")
	}
	sess := f.srv.sessionByID(f.sessID)
	if sess == nil {
		return 0, errors.New("clam: subscribing session is gone")
	}
	return f.srv.fan.subscribe(topic, f.shardKey(), procID, sess, true)
}

// Unsubscribe cancels subscription id on topic, returning the client
// procedure id it delivered to (so the client can retire it) and whether
// the subscription existed.
func (f *FanoutClass) Unsubscribe(topic string, id uint64) (uint64, bool) {
	key := f.shardKey()
	procID, ok := f.srv.fan.unsubscribe(topic, key, id)
	if ok {
		f.srv.journalUnsubscribe(topic, key, id)
	}
	return procID, ok
}

// Subscribers reports the live subscription count for topic, across all
// clients — a remote observability probe.
func (f *FanoutClass) Subscribers(topic string) uint64 {
	return uint64(f.srv.fan.subs.TopicLen(topic))
}

// RegisterFanoutClass adds the "fanout" class to lib. NewServer calls it
// automatically; it is exported for libraries shared across servers that
// want to register it eagerly.
func RegisterFanoutClass(lib *dynload.Library) error {
	return lib.Register(dynload.Class{
		Name:    "fanout",
		Version: 1,
		Type:    reflect.TypeOf(&FanoutClass{}),
		New: func(env any) (any, error) {
			e, ok := env.(*Env)
			if !ok || e.Server == nil {
				return nil, fmt.Errorf("clam: fanout class requires a server environment, got %T", env)
			}
			return &FanoutClass{srv: e.Server, sessID: e.SessionID}, nil
		},
	})
}

// --- client-side wrappers ----------------------------------------------------------

// Subscribe registers fn as a subscriber of the server's multicast topic:
// every event published to it arrives as an upcall to fn, FIFO within
// this subscription. fn's parameters must match the topic's prototype
// (checked at delivery, like any upcall). The returned id cancels the
// subscription via Unsubscribe.
func (c *Client) Subscribe(topic string, fn any) (uint64, error) {
	return c.subscribe(topic, fn, false)
}

// subscribe is Subscribe with the relay switch: a server linking a topic
// over a mesh peer link registers a relay-marked tap (SubscribeRelay on
// the wire) so the peer never fans mesh-relayed events back through it.
func (c *Client) subscribe(topic string, fn any, relay bool) (uint64, error) {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.Kind() != reflect.Func || v.IsNil() {
		return 0, fmt.Errorf("clam: subscriber is not a func: %T", fn)
	}
	r, err := c.fanoutRemote()
	if err != nil {
		return 0, err
	}
	method := "Subscribe"
	if relay {
		method = "SubscribeRelay"
	}
	procID := c.registerProc(v)
	var id uint64
	if err := r.CallInto(method, []any{&id}, topic, procID); err != nil {
		c.dropProc(procID)
		return 0, err
	}
	return id, nil
}

// Unsubscribe cancels a Subscribe subscription. Pending undelivered
// events are discarded server-side; deliveries already in flight may
// still arrive.
func (c *Client) Unsubscribe(topic string, id uint64) error {
	r, err := c.fanoutRemote()
	if err != nil {
		return err
	}
	var procID uint64
	var found bool
	if err := r.CallInto("Unsubscribe", []any{&procID, &found}, topic, id); err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("clam: no subscription %d on topic %q", id, topic)
	}
	if procID != 0 {
		c.dropProc(procID)
	}
	return nil
}

// fanoutRemote lazily instantiates this client's fanout-class instance.
// One instance per client: its handle tag is the client's subscription
// shard key, and its SessionID ties subscriptions to this session's
// upcall channel.
func (c *Client) fanoutRemote() (*Remote, error) {
	c.fanMu.Lock()
	defer c.fanMu.Unlock()
	if c.fanRemote == nil {
		r, err := c.New("fanout", 0)
		if err != nil {
			return nil, fmt.Errorf("clam: loading fanout class: %w", err)
		}
		c.fanRemote = r
	}
	return c.fanRemote, nil
}

// dropProc retires a client procedure registration whose subscription is
// gone, so the proc table does not grow with subscribe/unsubscribe churn.
func (c *Client) dropProc(id uint64) {
	c.procMu.Lock()
	delete(c.procs, id)
	c.procMu.Unlock()
}
