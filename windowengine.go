// WindowEngine is the fourth façade over the generic sharded runtime
// (runtime.go): sliding-window FEwW — "which item is frequent with
// witnesses over the last Window updates" — served with the exact
// contract of the other three kinds.  Each shard hosts a
// core.WindowShard: a ladder of suffix InsertOnly instances started at
// bucket boundaries of the *global* stream, serving the oldest instance
// still inside the window and expiring whole instances in O(1); see the
// WindowShard godoc for the construction and its space/recency trade-off
// against the paper's Algorithm 2 bounds.
//
// Two runtime hooks make the window engine-wide rather than per-shard.
// First, every accepted edge is stamped with its 0-based global arrival
// position — reserved atomically, stamped before routing — so bucket
// boundaries align across shards and a shard's answers age against the
// whole stream's progress, not just its own sub-stream's.  Second, the
// engine owns the clock the shards age against (the accepted count,
// advanced by a CAS-max at each reservation), and shard workers
// republish on every barrier even when idle: a shard whose items stopped arriving still
// ages out as *other* shards' traffic advances the clock, and
// Drain still leaves published and fresh answers coinciding.
package feww

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"feww/internal/core"
	"feww/internal/stream"
)

// WindowEngineConfig parameterises the sharded sliding-window engine.
type WindowEngineConfig struct {
	// Config describes the global problem exactly as for Engine: universe
	// size N, frequency threshold D, approximation factor Alpha, master
	// Seed, reservoir ScaleFactor.  D counts in-window occurrences.
	Config

	// Window is the sliding window length W, in accepted updates across
	// the whole engine (all shards).  Required, >= 1.
	Window int64
	// Buckets is the number of sub-windows B (default 8, clamped to
	// Window): expiry happens in whole buckets of width ceil(W/B), live
	// space is multiplied by at most B+1, and the served window's one-
	// sided slack is under one bucket width.  Cluster members of one
	// logical window must share B (and split W); the gateway checks.
	Buckets int64

	// Shards, BatchSize, QueueDepth behave exactly as in EngineConfig.
	Shards     int
	BatchSize  int
	QueueDepth int
}

// resolve applies defaults and clamps; the resolved form is what
// Snapshot persists.
func (cfg *WindowEngineConfig) resolve() error {
	if cfg.Window < 1 {
		return fmt.Errorf("feww: WindowEngine config: Window = %d, want >= 1", cfg.Window)
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 8
		if cfg.Buckets > cfg.Window {
			cfg.Buckets = cfg.Window
		}
	}
	if cfg.Buckets < 1 || cfg.Buckets > cfg.Window {
		return fmt.Errorf("feww: WindowEngine config: Buckets = %d, want 1 <= Buckets <= Window = %d",
			cfg.Buckets, cfg.Window)
	}
	return resolveShardParams("WindowEngine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

func (c WindowEngineConfig) dims() engineDims {
	return engineDims{c.N, c.Seed, c.Shards, c.BatchSize, c.QueueDepth}
}

// WindowEngine is the sharded, batched sliding-window engine.  It
// carries the runtime's full contract — safe for any number of
// concurrent producers and queriers, deterministic under a fixed seed
// and single producer, barrier-free published queries with Fresh
// variants, exact Snapshot/Restore — inherited from the same
// implementation the other engine kinds run on.  Its queries answer over
// the window only: no witness is ever older than Window updates.
type WindowEngine struct {
	flatQueries[WindowEngineConfig, core.WindowUpdate]
	clock atomic.Int64 // accepted updates; the shards' shared age source
}

var windowKind = &engineKind[WindowEngineConfig, core.WindowUpdate, *WindowEngine]{
	name: "WindowEngine",
	kind: engineKindWindow,
	// Bucket boundaries are global positions, so the container needs
	// no extra geometry beyond Window, Buckets and the accepted count:
	// each shard serialises its live suffix instances with their
	// boundary labels, and restore re-derives everything else.
	header: func(c *WindowEngineConfig) []any {
		return []any{&c.N, &c.D, &c.Alpha, &c.Window, &c.Buckets, &c.Seed, &c.ScaleFactor,
			&c.Shards, &c.BatchSize, &c.QueueDepth}
	},
	item:    func(u core.WindowUpdate) int64 { return u.A },
	setItem: func(u *core.WindowUpdate, a int64) { u.A = a },
	// The clock must be in place before any shard view is built: the
	// runtime publishes each shard's epoch-0 view during construction,
	// and those views judge instance liveness by the clock — a zero clock
	// would misjudge every restored instance.
	assemble: func(cfg WindowEngineConfig, count int64) (*WindowEngine, error) {
		if cfg.Window < 1 || cfg.Buckets < 1 || cfg.Buckets > cfg.Window {
			return nil, fmt.Errorf("window header W %d B %d", cfg.Window, cfg.Buckets)
		}
		e := new(WindowEngine)
		e.clock.Store(count)
		return e, nil
	},
	open: func(e *WindowEngine, i int, p int64, seed uint64, r io.Reader) (shardAlgo[core.WindowUpdate], error) {
		// Window and Buckets are global, not divided: positions are global
		// stream positions, so every shard ages against the same
		// boundaries.
		want := core.WindowShardConfig{
			N:           shardUniverse(e.cfg.N, p, i),
			D:           e.cfg.D,
			Alpha:       e.cfg.Alpha,
			Window:      e.cfg.Window,
			Buckets:     e.cfg.Buckets,
			Seed:        seed,
			ScaleFactor: e.cfg.ScaleFactor,
		}
		if r == nil {
			ws, err := core.NewWindowShard(want, e.clock.Load)
			return windowAlgo{ws}, err
		}
		// RestoreWindowShard cross-checks every instance snapshot against
		// the derived configuration, so no separate comparison is needed.
		ws, err := core.RestoreWindowShard(r, want, e.clock.Load)
		return windowAlgo{ws}, err
	},
	started: installWindowHooks,
}

// NewWindowEngine constructs a sharded window engine and starts its
// shard goroutines.  Shard p owns items {a in [0, N) : a % P == p}, each
// as a WindowShard over a universe of size ceil((N-p)/P) with a seed
// derived from cfg.Seed.
func NewWindowEngine(cfg WindowEngineConfig) (*WindowEngine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	return build(windowKind, cfg, 0, nil)
}

// RestoreWindowEngine reads a snapshot written by (*WindowEngine).Snapshot
// (FEWWENG1 kind byte 3) and returns a running engine that continues
// exactly where the snapshotted one stopped: same window geometry, same
// bucket boundaries, same positions — the next accepted update is stamped
// with the position after the last pre-snapshot one, so the restored
// stream is indistinguishable from an uninterrupted run.
func RestoreWindowEngine(r io.Reader) (*WindowEngine, error) { return restore(r, windowKind) }

// installWindowHooks installs the two window hooks on a new runtime.
func installWindowHooks(e *WindowEngine) {
	// Positions are dense, unique and reservation-ordered, and the clock
	// equals the accepted count.  The clock advances in the reserve hook —
	// once per reservation, before any element of the range is stamped or
	// routed — so a batch handed to a worker happens-after the clock
	// covering its last element, and a worker's view never treats an
	// instance as live that its own batch already aged out.  Reservations
	// race lock-free, so the advance is a CAS-max: a producer whose range
	// linearised earlier must never drag the clock backwards just because
	// it reached the hook later.
	e.rt.f.reserve = func(base, n int64) {
		for {
			cur := e.clock.Load()
			if base+n <= cur || e.clock.CompareAndSwap(cur, base+n) {
				return
			}
		}
	}
	e.rt.f.stamp = func(u *core.WindowUpdate, pos int64) {
		u.Pos = pos
	}
	// Idle shards must republish at barriers: their liveness horizon moves
	// with the global clock even when no local traffic arrives.
	e.rt.f.publishOnAck = true
}

// Window returns the configured window length W.
func (e *WindowEngine) Window() int64 { return e.cfg.Window }

// Buckets returns the resolved sub-window count B.
func (e *WindowEngine) Buckets() int64 { return e.cfg.Buckets }

// WindowSpan returns the stream-position interval the engine currently
// serves: start is the oldest bucket boundary still inside the window
// (0 until the stream outgrows it), end the accepted count.  It is what
// the server surfaces as the window position on /stats.
func (e *WindowEngine) WindowSpan() (start, end int64) {
	end = e.clock.Load()
	return core.WindowStart(end, e.cfg.Window, e.cfg.Buckets), end
}

// ProcessEdge feeds one inserted edge (a, b).  The update occupies one
// window position; what it displaces is whatever bucket falls out of the
// window as the stream advances.  Errors as (*Engine).ProcessEdge.
func (e *WindowEngine) ProcessEdge(a, b int64) error {
	return e.feedOne(core.WindowUpdate{Edge: stream.Edge{A: a, B: b}}, e.check)
}

func (e *WindowEngine) check(i, total int, u core.WindowUpdate) error {
	return checkEdge(i, total, u.Edge, e.cfg.N)
}

// windowBufPool recycles the []core.WindowUpdate conversion buffers of
// ProcessEdges (as *[]T, so recycling does not re-box the slice header).
// The fanout copies batches into per-shard buffers before returning, so
// a buffer is safe to recycle as soon as the feed returns.
var windowBufPool = sync.Pool{New: func() any { return new([]core.WindowUpdate) }}

// ProcessEdges feeds a batch of inserted edges in order.  The slice is
// converted into position-carrying updates through a pooled buffer,
// validated whole, rejected atomically, and copied into per-shard
// buffers; the caller keeps ownership.
func (e *WindowEngine) ProcessEdges(edges []Edge) error {
	buf := windowBufPool.Get().(*[]core.WindowUpdate)
	ups := (*buf)[:0]
	for _, ed := range edges {
		ups = append(ups, core.WindowUpdate{Edge: ed})
	}
	err := e.feed(ups, e.check)
	*buf = ups[:0]
	windowBufPool.Put(buf)
	return err
}
