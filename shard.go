package feww

import (
	"sync"
	"sync/atomic"
	"time"

	"feww/internal/core"
)

// The runtime partitions the item universe [0, N) across P shards by
// residue: shard p owns every global item a with a % P == p, stored inside
// the shard's algorithm instance under the local id a / P.  The mapping is
// a bijection between the shard's slice of the universe and [0, ceil((N-p)/P)),
// so each shard runs the unmodified single-threaded algorithm on a smaller
// universe and the per-item degree promise transfers exactly: every edge of
// a global item lands in the one shard that owns it.  The shard type itself
// (rtShard) lives in runtime.go; this file holds the concurrency skeleton —
// published view epochs and the fanout worker machinery.

// publishedView is one result epoch of one shard: an immutable core.View
// built by the shard's worker from quiescent state, plus the epoch number
// (0 for the pre-stream view installed at construction, then incremented
// on every publication).  The worker is the only writer; any number of
// goroutines may Load and read it without further synchronisation, which
// is what makes the engines' default query path barrier-free.
type publishedView struct {
	core.View
	Epoch uint64
}

// shardCount resolves the configured shard count against the universe size:
// 0 means "one shard per available CPU", and the count is clamped to N so
// every shard owns at least one item.
func shardCount(requested int, n int64, defaultShards int) int {
	p := requested
	if p == 0 {
		p = defaultShards
	}
	if int64(p) > n {
		p = int(n)
	}
	return p
}

// msg is the unit of work on a worker queue: a batch buffer (recycled
// after application) and/or a barrier acknowledgement channel, which the
// worker closes once every earlier batch has been applied.  A barrier
// sends both halves in one message, so a flush+ack pass costs each shard
// queue a single send.
type msg[E any] struct {
	batch *[]E
	ack   chan<- struct{}
}

// lane is the producer-facing half of one shard: the fill buffer the
// routed sub-batches accumulate in, the element count handed to the
// shard queue but not yet applied, and the admission sequence that keeps
// the shard's sub-stream in exact global-position order under concurrent
// producers.
//
// nextBase is the reserved base position of the next sub-batch the lane
// will admit.  A producer that reserved [base, base+n) may touch the
// lane only once nextBase == base, and leaves nextBase = base+n behind —
// so sub-batches enter the fill buffer (and hence the shard queue) in
// exactly the order their positions were reserved, with no global lock
// anywhere on the path.  Every reservation visits every lane, including
// lanes it routes nothing to: skipping a lane would strand its admission
// sequence and deadlock the next producer.
type lane[E any] struct {
	mu       sync.Mutex
	seq      sync.Cond // signalled whenever nextBase advances
	nextBase int64     // base position of the next admissible reservation
	pending  *[]E      // fill buffer, owned by the mu holder
	queued   atomic.Int64
}

// take removes the fill buffer for hand-off to the shard queue (counting
// its elements into queued) and installs a fresh one, or returns nil if
// nothing is buffered.
//
//fewwvet:requires mu
func (ln *lane[E]) take(f *fanout[E]) *[]E {
	if len(*ln.pending) == 0 {
		return nil
	}
	batch := ln.pending
	ln.queued.Add(int64(len(*batch)))
	ln.pending = f.newBuf()
	return batch
}

// fanout is the concurrency skeleton under the generic runtime (and hence
// every engine façade — Engine, TurnstileEngine, StarEngine, WindowEngine):
// per-shard lanes (fill buffer + admission sequence), bounded FIFO batch
// queues, one worker goroutine per shard, an ack barrier, and buffer
// recycling through a sync.Pool (of *[]E, so recycling does not re-box the
// slice header).  Each worker drains its queue in FIFO order, so every
// shard consumes its sub-stream in exact global-position order and results
// are deterministic regardless of scheduling.
//
// The producer path is a two-phase reserve-then-enqueue pipeline with no
// global lock on it.  Phase 1: a producer reserves a contiguous position
// range for its batch with one atomic add on count, then stamps and
// partitions the batch into per-shard sub-batches outside any lock, in
// pooled per-call scratch buffers.  Phase 2: the sub-batches are admitted
// lane by lane in reserved-base order (see lane), so concurrent producers
// proceed in parallel through everything but the final per-shard append.
// Ingest order — and hence determinism — across concurrent producers is
// the order their reservations linearised in: the position assignment
// fully determines every shard's apply order and the window engine's
// arrival stamps.  A single producer is byte-identical to the historical
// global-lock behaviour.
//
// gate is the close/barrier rendezvous that remains: producers hold it
// shared for the duration of a feed call, close/drain/query take it
// exclusively, so a barrier observes no mid-flight reservations and close
// can never race a producer into a closed channel.  closed is read
// without any lock (atomic), so Closed()/health probes never contend with
// ingest.  Feeding a closed fanout returns ErrClosed.
//
// Queries come in two consistencies.  Barrier queries (query) take gate
// exclusively and quiesce the workers, so the callback may read shard
// state directly — every element fed before the call is applied.  The
// default barrier-free path instead reads each shard's published view:
// after applying batches, a worker rebuilds its immutable result view
// (via the publish hook) and installs it with an atomic store, so readers
// never touch any lock, never stall the workers, and never observe a
// half-applied batch.  Publication coalesces under backlog and is
// throttled when idle — the view is rebuilt only when the worker's queue
// momentarily empties and publishMinInterval has passed, or when a
// barrier demands it — so neither saturation nor a trickle of batches
// trades ingest throughput for view freshness.
type fanout[E any] struct {
	name      string // engine type, for error messages
	batchSize int
	item      func(E) int64 // global item id of an element, for routing
	apply     []func([]E)   // per shard: apply one batch (global ids)
	publish   []func()      // per shard: rebuild + atomically install the view
	chans     []chan msg[E]
	lanes     []lane[E]
	pool      sync.Pool // *[]E batch buffers
	scratch   sync.Pool // *routeScratch[E] per-call partition buffers
	wg        sync.WaitGroup
	gate      sync.RWMutex // shared by producers, exclusive for close/barrier
	count     atomic.Int64 // positions reserved so far
	closed    atomic.Bool  // set by close, read lock-free by isClosed

	// stamp, when set, is called during the lock-free partition phase for
	// every accepted element with its 0-based reserved stream position —
	// how the window engine attaches arrival positions without a second
	// pass.  It runs after routing, so it must not change the item id.
	// reserve, when set, is called once per reservation with the base
	// position and length, before any element of the range is stamped or
	// routed — how the window engine advances its clock so a worker never
	// applies a position the clock has not covered.
	// publishOnAck makes workers republish at every barrier even when
	// they applied nothing since the last publication: an engine whose
	// views depend on global stream progress (the window engine's clock
	// advances with *other* shards' traffic) needs idle shards to refresh
	// too, or Drain would leave their published views behind the fresh
	// ones.  All three are set by a façade constructor before the fanout
	// is shared, never mutated after.
	stamp        func(el *E, pos int64)
	reserve      func(base, n int64)
	publishOnAck bool
}

// routeScratch holds one producer call's per-shard partition buffers.
// Pooled per fanout: a feed call Gets one, fills subs[i] with shard i's
// sub-batch, admits them, resets and Puts — so steady-state ingest
// allocates nothing on the routing path regardless of producer count.
type routeScratch[E any] struct {
	subs [][]E
}

// newFanout builds the skeleton and starts one worker per apply function.
// publish[i] is invoked by worker i alone, after it has applied batches
// and found its queue empty (and before acknowledging a barrier), so the
// hook may read shard i's state without synchronisation.
func newFanout[E any](name string, batchSize, queueDepth int, item func(E) int64, apply []func([]E), publish []func()) *fanout[E] {
	f := &fanout[E]{
		name:      name,
		batchSize: batchSize,
		item:      item,
		apply:     apply,
		publish:   publish,
		chans:     make([]chan msg[E], len(apply)),
		lanes:     make([]lane[E], len(apply)),
	}
	for i := range f.chans {
		f.chans[i] = make(chan msg[E], queueDepth)
		ln := &f.lanes[i]
		ln.seq.L = &ln.mu
		ln.pending = f.newBuf()
	}
	f.wg.Add(len(f.chans))
	for i := range f.chans {
		go f.run(i)
	}
	return f
}

// publishMinInterval throttles idle republication: between barriers a
// shard rebuilds its result view at most once per interval.  Rebuilding
// a view costs roughly one full query (for the turnstile engine, an L0
// recovery pass over every sampler), so publishing after *every* batch
// would make lightly-loaded ingest pay a query per batch; the throttle
// caps that at ~20 rebuilds per second per shard while keeping published
// staleness bounded by the interval.  Barrier publications (before acks,
// after close) are never throttled — Drain/Snapshot/Fresh reads stay
// exact.  A variable so the race tests can set it to zero and hammer the
// publication path.
var publishMinInterval = 50 * time.Millisecond

// run is the worker goroutine for shard i.  Between applying batches it
// republishes the shard's result view: when the queue is empty (the
// worker is about to idle) and the throttle window is open, before
// acknowledging a barrier (so a barrier implies the published view is
// exact), and once more after the queue closes (so the final view
// reflects the complete stream).  If the throttle defers a publication,
// the worker waits for more work with a deadline and publishes when the
// window closes, so the published view converges even if no further
// traffic arrives.  Under sustained backlog the queue never empties and
// publication is skipped — ingest throughput is never traded for view
// freshness.
func (f *fanout[E]) run(i int) {
	defer f.wg.Done()
	dirty := false
	var last time.Time // most recent publication
	var timer *time.Timer
	publish := func() {
		if f.publish[i] != nil {
			f.publish[i]()
		}
		dirty = false
		last = time.Now()
	}
	for {
		var m msg[E]
		var ok bool
		if dirty && len(f.chans[i]) == 0 {
			// A throttled publication is pending and no work is queued:
			// wait for more, but only until the throttle window closes.
			// The timer is reused across waits — time.After here would
			// allocate a fresh timer every time the worker goes idle,
			// which the ingest allocation gate counts against the hot
			// path.  After a Stop that loses the race with expiry the
			// channel holds a stale tick; drain it so the next Reset
			// starts clean.
			if timer == nil {
				timer = time.NewTimer(publishMinInterval - time.Since(last))
			} else {
				timer.Reset(publishMinInterval - time.Since(last))
			}
			select {
			case m, ok = <-f.chans[i]:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				publish()
				continue
			}
		} else {
			m, ok = <-f.chans[i]
		}
		if !ok {
			break
		}
		if m.batch != nil {
			f.apply[i](*m.batch)
			f.lanes[i].queued.Add(-int64(len(*m.batch)))
			*m.batch = (*m.batch)[:0]
			f.pool.Put(m.batch)
			dirty = true
		}
		if m.ack != nil {
			if dirty || f.publishOnAck {
				publish()
			}
			close(m.ack)
		}
		if dirty && len(f.chans[i]) == 0 && time.Since(last) >= publishMinInterval {
			publish()
		}
	}
	if dirty || f.publishOnAck {
		publish()
	}
}

// add routes one element: a one-element addBatch over a stack array, so
// single-element feeds take the one admission path.
func (f *fanout[E]) add(el E) error {
	one := [1]E{el}
	return f.addBatch(one[:])
}

// addBatch routes a slice (copying it into the per-shard fill buffers, so
// the caller keeps ownership).  Full buffers are handed to the owning
// worker.  It returns ErrClosed — without feeding anything — once close
// has run, so a server draining towards shutdown can turn an in-flight
// ingest into a clean error instead of a panic.  A reservation walks
// every lane, even one it routes nothing to: admission order is
// positional, so a lane skipped here would never admit the next
// producer's sub-batch.
func (f *fanout[E]) addBatch(els []E) error {
	if len(els) == 0 {
		if f.closed.Load() {
			return ErrClosed
		}
		return nil
	}
	f.gate.RLock()
	defer f.gate.RUnlock()
	if f.closed.Load() {
		return ErrClosed
	}
	// Phase 1: reserve the position range, then stamp and partition into
	// the per-call scratch buffers — no lock anywhere, so concurrent
	// producers route in parallel.
	n := int64(len(els))
	base := f.count.Add(n) - n
	if f.reserve != nil {
		f.reserve(base, n)
	}
	sc := f.newScratch()
	p := int64(len(f.chans))
	if f.stamp == nil {
		// Kept as a separate loop so the engines that never stamp pay
		// nothing per element for the hook.
		for _, el := range els {
			i := int(f.item(el) % p)
			sc.subs[i] = append(sc.subs[i], el)
		}
	} else {
		for j, el := range els {
			// The stamp lands on the scratch copy: the caller's slice is
			// never written to, it keeps ownership as documented.  Taking
			// the loop variable's address instead would move it to the
			// heap, one allocation per element.
			i := int(f.item(el) % p)
			sub := append(sc.subs[i], el)
			f.stamp(&sub[len(sub)-1], base+int64(j))
			sc.subs[i] = sub
		}
	}
	// Phase 2: admit each sub-batch under its lane's sequence, ticket
	// ordered by the reserved base.
	for i := range f.lanes {
		ln := &f.lanes[i]
		ln.mu.Lock()
		for ln.nextBase != base {
			ln.seq.Wait()
		}
		sub := sc.subs[i]
		for len(sub) > 0 {
			room := f.batchSize - len(*ln.pending)
			if room > len(sub) {
				room = len(sub)
			}
			*ln.pending = append(*ln.pending, sub[:room]...)
			sub = sub[room:]
			if len(*ln.pending) >= f.batchSize {
				if batch := ln.take(f); batch != nil {
					f.chans[i] <- msg[E]{batch: batch}
				}
			}
		}
		ln.nextBase = base + n
		ln.mu.Unlock()
		ln.seq.Broadcast()
	}
	f.putScratch(sc)
	return nil
}

// newScratch hands out a per-call partition scratch, its sub-batch
// buffers sized by earlier traffic.
func (f *fanout[E]) newScratch() *routeScratch[E] {
	if v := f.scratch.Get(); v != nil {
		return v.(*routeScratch[E])
	}
	return &routeScratch[E]{subs: make([][]E, len(f.chans))}
}

// putScratch resets the sub-batches (keeping their capacity) and ends
// the caller's ownership.
func (f *fanout[E]) putScratch(sc *routeScratch[E]) {
	for i := range sc.subs {
		sc.subs[i] = sc.subs[i][:0]
	}
	f.scratch.Put(sc)
}

func (f *fanout[E]) newBuf() *[]E {
	if v := f.pool.Get(); v != nil {
		return v.(*[]E)
	}
	buf := make([]E, 0, f.batchSize)
	return &buf
}

// flush hands every buffered element to its shard queue without waiting.
// It runs concurrently with producers (each lane briefly locked), so it
// cuts batches at whatever boundary it finds — results are batch-size
// independent, so the cut is invisible beyond published-view granularity.
func (f *fanout[E]) flush() error {
	f.gate.RLock()
	defer f.gate.RUnlock()
	if f.closed.Load() {
		return ErrClosed
	}
	for i := range f.lanes {
		ln := &f.lanes[i]
		ln.mu.Lock()
		if batch := ln.take(f); batch != nil {
			f.chans[i] <- msg[E]{batch: batch}
		}
		ln.mu.Unlock()
	}
	return nil
}

// drain flushes and blocks until every worker has applied everything
// queued so far.  After Close it returns ErrClosed: the workers have
// drained and stopped, so there is nothing left to wait for.
func (f *fanout[E]) drain() error {
	f.gate.Lock()
	defer f.gate.Unlock()
	if f.closed.Load() {
		return ErrClosed
	}
	f.barrierLocked()
	return nil
}

// query runs fn after a barrier, holding gate exclusively throughout, so
// fn may read shard state directly: every element fed before the call is
// applied, the workers are idle on their queues, and no producer can slip
// new batches in while fn runs.
func (f *fanout[E]) query(fn func()) {
	f.gate.Lock()
	defer f.gate.Unlock()
	f.barrierLocked()
	fn()
}

// barrierLocked makes every element fed so far visible to the caller: it
// sends each worker its remaining fill buffer and an ack token in one
// message, then waits for all of them.  Each queue is FIFO with a single
// consumer, so an acked worker has applied every earlier batch; the ack
// also establishes the happens-before edge that lets the caller read
// shard state directly.  The caller holds gate exclusively, so no
// producer is mid-reservation; the lane locks are still taken around the
// buffer hand-off because lock-free telemetry reads (queueDepths) run
// without the gate.  After close the workers have drained and stopped,
// so reads are safe without a barrier.
func (f *fanout[E]) barrierLocked() {
	if f.closed.Load() {
		return
	}
	acks := make([]chan struct{}, len(f.chans))
	for i := range f.chans {
		ack := make(chan struct{})
		acks[i] = ack
		ln := &f.lanes[i]
		ln.mu.Lock()
		batch := ln.take(f)
		ln.mu.Unlock()
		f.chans[i] <- msg[E]{batch: batch, ack: ack}
	}
	for _, ack := range acks {
		<-ack
	}
}

// close flushes, stops the workers, and waits for them to drain.
// Idempotent.  Taking gate exclusively means no producer is past its
// closed check when the channels close, so a feed racing close gets a
// clean ErrClosed, never a send on a closed channel.
func (f *fanout[E]) close() {
	f.gate.Lock()
	defer f.gate.Unlock()
	if f.closed.Load() {
		return
	}
	for i := range f.lanes {
		ln := &f.lanes[i]
		ln.mu.Lock()
		batch := ln.take(f)
		ln.mu.Unlock()
		if batch != nil {
			f.chans[i] <- msg[E]{batch: batch}
		}
		close(f.chans[i])
	}
	f.wg.Wait()
	f.closed.Store(true)
}

// isClosed reports whether close has run.  It is what the engines' Closed
// accessors — and through them the service health probe — read: a single
// atomic load, so liveness checks never contend with ingest.
func (f *fanout[E]) isClosed() bool {
	return f.closed.Load()
}

// queueDepths samples the number of elements buffered per shard — both
// those sitting in batches on the shard queue and those still in the
// lane's fill buffer — a load signal for operational dashboards.  It
// takes no barrier and never touches gate: the numbers are instantaneous
// and may be stale by the time they are read.
func (f *fanout[E]) queueDepths() []int {
	depths := make([]int, len(f.chans))
	for i := range f.lanes {
		ln := &f.lanes[i]
		ln.mu.Lock()
		buffered := len(*ln.pending)
		ln.mu.Unlock()
		depths[i] = buffered + int(ln.queued.Load())
	}
	return depths
}
