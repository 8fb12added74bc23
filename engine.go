// The sharded engines lift the single-threaded FEwW algorithms to a
// concurrent, batched ingest pipeline.  The paper's one-way communication
// protocols already prove the state is partition-friendly — a Snapshot is a
// complete, self-contained message — and a per-item partition is even
// stronger: every edge of an item lands in exactly one shard, so each shard
// is an ordinary single-threaded instance over a slice of the universe, the
// degree-d promise transfers verbatim, and merging shard outputs is a
// concatenation (Results) plus a max-select (Best).  The hot path is a
// two-phase reserve-then-enqueue pipeline: a producer claims a contiguous
// position range with one atomic add, partitions its batch into per-shard
// sub-batches outside any lock, then admits each sub-batch under a
// per-shard sequence ordered by the reserved base — so concurrent
// producers (a network server's handlers, a gateway's replica fan-out)
// route in parallel and contend only on the brief per-shard appends,
// while each shard still consumes its sub-stream in exact global-position
// order.
//
// Queries are barrier-free by default: each shard worker publishes an
// immutable result view (a core.View inside a publishedView epoch) through
// an atomic pointer, so Best/Results/Result/SpaceWords/Usage merge the
// latest published epochs without touching the ingest path or quiescing
// any worker — a read-heavy workload neither stalls ingest nor serialises
// with other queries.  The Fresh variants keep the strict barrier
// semantics: they quiesce the shards and reflect every element fed before
// the call.
//
// All of that machinery lives once, in the generic runtime (runtime.go).
// The layer above it — engineBase, the flat queries, and the constructor
// driven by each kind's engineKind — lives once in this file, next to the
// two flat-engine façades: Engine for insertion-only streams,
// TurnstileEngine for insertion-deletion streams.

package feww

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"feww/internal/core"
	"feww/internal/stream"
	"feww/internal/xrand"
)

// ErrClosed is returned by the feed path (ProcessEdge, ProcessEdges,
// Insert, Delete, ProcessUpdates, Flush, Drain) once Close has run.  The
// engine stays fully queryable after Close; only feeding is refused.
var ErrClosed = errors.New("feww: engine used after Close")

// ErrOutOfUniverse is wrapped by the feed path when an element lies
// outside the engine's configured universe — a negative or too-large item
// id, a negative witness, or (turnstile) a witness at or beyond M.  The
// offending batch is rejected whole, before any element reaches a shard,
// so the engine state is untouched.
var ErrOutOfUniverse = errors.New("feww: element outside the engine's universe")

// ErrInvalidOp is wrapped by the turnstile feed path when an update's Op
// is neither Insert nor Delete.  Like ErrOutOfUniverse it rejects the
// batch whole with the engine state untouched.
var ErrInvalidOp = errors.New("feww: update op is neither Insert nor Delete")

const (
	defaultBatchSize  = 512
	defaultQueueDepth = 8
)

// resolveShardParams applies the shared Shards/BatchSize/QueueDepth
// defaults and clamps, mutating the fields into the exact parameters the
// runtime will run with (the form Snapshot persists).
func resolveShardParams(name string, n int64, shards, batchSize, queueDepth *int) error {
	if n < 1 {
		return fmt.Errorf("feww: %s config: N = %d, want >= 1", name, n)
	}
	*shards = shardCount(*shards, n, runtime.GOMAXPROCS(0))
	if *shards < 1 {
		return fmt.Errorf("feww: %s config: Shards = %d, want >= 1", name, *shards)
	}
	if *batchSize <= 0 {
		*batchSize = defaultBatchSize
	}
	if *queueDepth <= 0 {
		*queueDepth = defaultQueueDepth
	}
	return nil
}

// engineDims are the configuration fields the shared layer reads: N, the
// master seed, and the runtime parameters.
type engineDims struct {
	n                             int64
	seed                          uint64
	shards, batchSize, queueDepth int
}

// engineConfig is the constraint the four engine configurations satisfy.
type engineConfig interface{ dims() engineDims }

// engineFacade is the constraint the four façades satisfy via engineBase.
type engineFacade[C engineConfig, E any] interface{ base() *engineBase[C, E] }

// engineKind describes one engine kind (configuration C, element E,
// façade T) to build and to the FEWWENG1 codec (snapshot.go).
type engineKind[C engineConfig, E any, T engineFacade[C, E]] struct {
	name string // façade type name, for errors
	kind byte   // FEWWENG1 kind byte
	// header returns pointers to the configuration fields the container
	// header carries, in wire order.  Each is an *int64, *int, *uint64 or
	// *float64 and travels as one little-endian uint64.
	header  func(cfg *C) []any
	item    func(E) int64   // routing key: the element's global item id
	setItem func(*E, int64) // rewrites it: batches are remapped to local ids
	// assemble allocates the façade, with any per-kind state its shards
	// need, for a stream at count elements; it rejects kind-specific
	// fields a restored header got wrong.
	assemble func(cfg C, count int64) (T, error)
	// open builds shard i of p: fresh when r is nil, otherwise restored
	// from r and checked against the same derivation.
	open    func(eng T, i int, p int64, seed uint64, r io.Reader) (shardAlgo[E], error)
	started func(T) // optional; runs once the runtime exists, before any caller
}

// build assembles an engine of kind k and starts its runtime: fresh
// shards when dec is nil, otherwise restored from dec in shard order with
// the stream resuming at count.  Shard i's seed is the i-th draw from the
// master seed on both paths, so restore re-derives what it checks against.
func build[C engineConfig, E any, T engineFacade[C, E]](k *engineKind[C, E, T], cfg C, count int64, dec *wordDecoder) (T, error) {
	var zero T
	eng, err := k.assemble(cfg, count)
	if err != nil {
		if dec != nil {
			err = fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return zero, err
	}
	b := eng.base()
	b.cfg, b.kind, b.header = cfg, k.kind, k.header
	d := cfg.dims()
	p := int64(d.shards)
	seeds := xrand.New(d.seed)
	algos := make([]shardAlgo[E], d.shards)
	for i := range algos {
		seed := seeds.Uint64()
		if dec == nil {
			if algos[i], err = k.open(eng, i, p, seed, nil); err != nil {
				return zero, fmt.Errorf("feww: %s shard %d: %w", k.name, i, err)
			}
			continue
		}
		restore := func(r io.Reader) (shardAlgo[E], error) { return k.open(eng, i, p, seed, r) }
		if algos[i], err = restoreShard(dec, restore, i); err != nil {
			return zero, err
		}
	}
	// The container header: magic, kind byte, the fields and the count.
	headerBytes := len(engineSnapMagic) + 1 + 8*(len(k.header(&cfg))+1)
	b.rt = newRuntime(k.name, d.batchSize, d.queueDepth, headerBytes, count, k.item, k.setItem, algos)
	if k.started != nil {
		k.started(eng)
	}
	return eng, nil
}

// openChecked opens a core instance fresh from want, or restores it from r
// and verifies it carries exactly want — otherwise the local/global id
// mapping (and the universe checks above the engine) would be wrong.
func openChecked[K comparable, A interface{ Config() K }](want K, r io.Reader,
	fresh func(K) (A, error), restore func(io.Reader) (A, error)) (A, error) {
	if r == nil {
		return fresh(want)
	}
	inner, err := restore(r)
	if err == nil && inner.Config() != want {
		err = fmt.Errorf("%w: shard config %+v does not match container derivation %+v",
			ErrBadSnapshot, inner.Config(), want)
	}
	return inner, err
}

// engineBase is the body every engine façade embeds: the resolved
// configuration, the kind's FEWWENG1 identity and the runtime, with the
// methods every engine kind carries, defined once.
type engineBase[C engineConfig, E any] struct {
	cfg    C
	kind   byte
	header func(cfg *C) []any
	rt     *engineRuntime[E]
}

func (b *engineBase[C, E]) base() *engineBase[C, E] { return b }

// Shards returns the number of partitions in use.
func (b *engineBase[C, E]) Shards() int { return len(b.rt.shards) }

// Config returns the resolved configuration the engine runs with:
// defaults applied, shard count clamped.  It is also the configuration a
// snapshot persists.
func (b *engineBase[C, E]) Config() C { return b.cfg }

// Flush hands every buffered element to its shard queue without waiting
// for the shards to apply them.  The published views catch up as soon as
// the workers drain the handed-off batches.
func (b *engineBase[C, E]) Flush() error { return b.rt.f.flush() }

// Drain flushes and blocks until every shard has applied everything queued
// so far; afterwards all previously fed elements are reflected in queries
// of both consistencies (the workers republish before acknowledging).
func (b *engineBase[C, E]) Drain() error { return b.rt.f.drain() }

// Close flushes buffered elements, waits for the shards to apply them,
// and stops the shard goroutines.  The engine stays queryable after Close
// (the final published epochs reflect the complete stream); feeding
// further elements returns ErrClosed.  Close is idempotent.
func (b *engineBase[C, E]) Close() { b.rt.f.close() }

// Closed reports whether Close has run — i.e. whether the engine still
// accepts the stream.  Queries remain valid either way; the service
// health probe exposes this as its serving flag.
func (b *engineBase[C, E]) Closed() bool { return b.rt.f.isClosed() }

// WitnessTarget returns the guaranteed output size ceil(D/Alpha),
// identical on every shard.  For a StarEngine it is the topmost rung's
// target — the static ceiling on any answer's certified size, identical
// on every member of a cluster over the same graph; the target an answer
// actually certifies is its StarResult.Target.
func (b *engineBase[C, E]) WitnessTarget() int64 { return b.rt.shards[0].algo.WitnessTarget() }

// Processed returns the number of stream elements fed to the engine:
// edges, signed updates, or directed half-edges (two per undirected edge
// for a StarEngine).  For a WindowEngine it is the window's end position.
// The counter is maintained on the producer side, so no shard
// synchronisation is needed: polling it mid-stream is free.
func (b *engineBase[C, E]) Processed() int64 { return b.rt.f.count.Load() }

// QueueDepths samples the number of elements buffered for each shard:
// both the batches handed to the shard queue and not yet applied, and
// the elements still accumulating in the shard's producer-side fill
// buffer — so light load reads as the handful of elements actually
// parked, not zero.  A persistently large depth (approaching the
// configured QueueDepth × BatchSize) marks the shard as the ingest
// bottleneck — typically an item-skew hot spot.  The numbers are
// instantaneous: no barrier is taken, so they may be stale by the time
// they are read.
func (b *engineBase[C, E]) QueueDepths() []int { return b.rt.f.queueDepths() }

// ViewEpochs reports each shard's published epoch number — 0 before the
// first publication, then incremented every time the shard's worker
// republishes its view.  Monotonically non-decreasing per shard; a shard
// whose epoch stops advancing under load is applying batches without ever
// idling (publication coalesces under backlog).
func (b *engineBase[C, E]) ViewEpochs() []uint64 {
	epochs := make([]uint64, len(b.rt.shards))
	for i, sh := range b.rt.shards {
		epochs[i] = sh.view.Load().Epoch
	}
	return epochs
}

// SpaceWords reports the state size summed over the latest published
// epochs.  Sharding pays the O(n log n) degree-table term once in total
// (each shard tracks only its own items) while the n^(1/Alpha) reservoir
// term is paid per shard on a universe P times smaller.
func (b *engineBase[C, E]) SpaceWords() int {
	words, _ := b.Usage()
	return words
}

// SpaceWordsFresh is SpaceWords under the strict barrier.
func (b *engineBase[C, E]) SpaceWordsFresh() int {
	words, _ := b.UsageFresh()
	return words
}

// Usage reports SpaceWords and SnapshotSize from the latest published
// epochs — what a periodic stats poll should call, since it costs a few
// atomic loads and never quiesces the shards.
func (b *engineBase[C, E]) Usage() (spaceWords, snapshotBytes int) { return b.rt.usage(false) }

// UsageFresh reports SpaceWords and SnapshotSize together under a single
// quiesce — exact at the barrier, at the cost of stalling ingest once.
// Periodic stats polls should prefer the barrier-free Usage.
func (b *engineBase[C, E]) UsageFresh() (spaceWords, snapshotBytes int) { return b.rt.usage(true) }

// feed is every façade's feed path: the whole batch is validated before
// any of it is routed (copied into the per-shard buffers).
func (b *engineBase[C, E]) feed(els []E, check func(i, total int, el E) error) error {
	for i, el := range els {
		if err := check(i, len(els), el); err != nil {
			return err
		}
	}
	return b.rt.f.addBatch(els)
}

// feedOne is feed for a single element.
func (b *engineBase[C, E]) feedOne(el E, check func(i, total int, el E) error) error {
	if err := check(0, 1, el); err != nil {
		return err
	}
	return b.rt.f.add(el)
}

// resultQueries is the base plus the Result query pair: the whole query
// surface of the TurnstileEngine, whose samplers certify only
// full-target neighbourhoods.
type resultQueries[C engineConfig, E any] struct{ engineBase[C, E] }

// Result returns a frequent item with at least ceil(D/Alpha) witnesses
// from the latest published epochs, or ErrNoWitness if no shard has
// published one.  The choice is deterministic: the smallest-id frequent
// item of the lowest-index shard holding one — the same selection
// ResultFresh makes, so the two consistencies agree on quiescent state.
func (q *resultQueries[C, E]) Result() (Neighbourhood, error) { return q.rt.result(false) }

// ResultFresh is Result under the strict barrier: it quiesces the shards
// first, so the answer reflects every element fed before the call.
func (q *resultQueries[C, E]) ResultFresh() (Neighbourhood, error) { return q.rt.result(true) }

// flatQueries adds Results and Best: the query surface of the flat
// kinds, Engine and WindowEngine.
type flatQueries[C engineConfig, E any] struct{ resultQueries[C, E] }

// Results returns every distinct frequent element in the latest published
// epochs, sorted by global item id.  The per-item partition guarantees no
// item is reported by two shards, so the merge is a pure concatenation.
// The call is barrier-free: it never blocks ingest or other queries.
// The returned neighbourhoods stay valid forever, but their witness
// slices are shared with the published view (and with other callers on
// the same epoch) — treat them as read-only.
func (q *flatQueries[C, E]) Results() []Neighbourhood { return q.rt.results(false) }

// ResultsFresh is Results under the strict barrier.
func (q *flatQueries[C, E]) ResultsFresh() []Neighbourhood { return q.rt.results(true) }

// Best max-selects the largest neighbourhood across the latest published
// epochs, even if below the ceil(D/Alpha) target; found is false only if
// no shard has published anything.  Ties break toward the lower shard
// index.  Barrier-free; see Results.
func (q *flatQueries[C, E]) Best() (Neighbourhood, bool) { return q.rt.best(false) }

// BestFresh is Best under the strict barrier.
func (q *flatQueries[C, E]) BestFresh() (Neighbourhood, bool) { return q.rt.best(true) }

// The routing keys of the Edge streams (Engine, StarEngine) and of the
// turnstile Update stream: the item id A.
func edgeItem(e Edge) int64            { return e.A }
func setEdgeItem(e *Edge, a int64)     { e.A = a }
func updateItem(u Update) int64        { return u.A }
func setUpdateItem(u *Update, a int64) { u.A = a }

// checkEdge validates one insertion-only occurrence against a universe of
// n items (Engine, WindowEngine).  A negative item would make the shard
// router's modulo negative (an out-of-range shard index); an item >= N
// would silently land in the wrong residue class and corrupt the
// local/global id mapping.  Both are rejected here, before anything is
// buffered.  The witness space is unbounded but must be non-negative.
func checkEdge(i, total int, ed Edge, n int64) error {
	if ed.A < 0 || ed.A >= n {
		return fmt.Errorf("%w: edge %d of %d: item %d not in [0, %d)", ErrOutOfUniverse, i, total, ed.A, n)
	}
	if ed.B < 0 {
		return fmt.Errorf("%w: edge %d of %d: witness %d is negative", ErrOutOfUniverse, i, total, ed.B)
	}
	return nil
}

// EngineConfig parameterises the sharded insertion-only engine.  The
// embedded Config describes the global problem (full universe size N,
// threshold D, Alpha, master Seed); the engine derives per-shard universes
// and statistically independent per-shard seeds from it.
type EngineConfig struct {
	Config

	// Shards is the number of partitions P, each served by its own
	// goroutine.  0 means runtime.GOMAXPROCS(0).  The count is clamped to N
	// so every shard owns at least one item.
	Shards int
	// BatchSize is the number of edges buffered per shard before hand-off
	// (default 512).  Larger batches amortise queue traffic; results are
	// identical for any batch size.
	BatchSize int
	// QueueDepth is the per-shard queue capacity in batches (default 8);
	// it bounds how far the producer may run ahead of a slow shard.
	QueueDepth int
}

// resolve applies defaults and clamps.
func (cfg *EngineConfig) resolve() error {
	return resolveShardParams("Engine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

func (c EngineConfig) dims() engineDims {
	return engineDims{c.N, c.Seed, c.Shards, c.BatchSize, c.QueueDepth}
}

// Engine is a sharded, batched front-end to the insertion-only FEwW
// algorithm.  Items are partitioned across P independent InsertOnly
// instances, each fed in stream order by its own goroutine, so ingest
// scales with cores while every per-shard guarantee of Theorem 3.2 is
// preserved on the shard's sub-universe.  A fixed seed yields identical
// results across executions regardless of scheduling or batch size.
//
// Engine is safe for concurrent use: any number of goroutines may feed
// (ProcessEdge, ProcessEdges, Flush) and query (Result, Results, Best,
// SpaceWords, ...) at once — the use case being a network server whose
// handlers ingest and answer queries concurrently.  Determinism holds
// whenever the edges reach the engine in a fixed order, i.e. with a
// single producer; concurrent producers are interleaved in the order
// their batches' atomic position reservations linearised — an order the
// engine applies consistently across every shard, even though it is not
// known in advance.
//
// Queries default to the published consistency: they merge the shards'
// latest published result epochs without any locking, so they cost
// nanoseconds, scale with readers, and never stall ingest — at the price
// of lagging the accepted stream.  Work handed to the shards becomes
// visible within a short publication throttle (tens of milliseconds; see
// shard.go), but edges parked in a partial producer-side fill buffer are
// not dispatched until the batch fills, Flush is called, or a barrier
// runs — a producer that stops mid-batch must Flush (as the HTTP server
// does per request) or published queries will not see the tail.  Every
// published value was genuinely held by the engine at a batch boundary
// (a prefix of each shard's sub-stream); nothing torn or fabricated is
// ever visible.  The Fresh variants (ResultFresh, ResultsFresh,
// BestFresh, SpaceWordsFresh, UsageFresh) opt into the strict barrier:
// they quiesce the shards and reflect every element fed before the call.
// After Drain or Close the two consistencies coincide.  Queries of either
// kind remain valid after Close.
type Engine struct {
	flatQueries[EngineConfig, Edge]
}

var insertOnlyKind = &engineKind[EngineConfig, Edge, *Engine]{
	name: "Engine",
	kind: engineKindInsertOnly,
	header: func(c *EngineConfig) []any {
		return []any{&c.N, &c.D, &c.Alpha, &c.Seed, &c.ScaleFactor, &c.Shards, &c.BatchSize, &c.QueueDepth}
	},
	item:     edgeItem,
	setItem:  setEdgeItem,
	assemble: func(EngineConfig, int64) (*Engine, error) { return new(Engine), nil },
	// Shard i is an InsertOnly instance over its slice of the universe.
	open: func(e *Engine, i int, p int64, seed uint64, r io.Reader) (shardAlgo[Edge], error) {
		want := core.InsertOnlyConfig{
			N:           shardUniverse(e.cfg.N, p, i),
			D:           e.cfg.D,
			Alpha:       e.cfg.Alpha,
			Seed:        seed,
			ScaleFactor: e.cfg.ScaleFactor,
		}
		inner, err := openChecked(want, r, core.NewInsertOnly, core.RestoreInsertOnly)
		return insertOnlyAlgo{inner}, err
	},
}

// NewEngine constructs a sharded engine and starts its shard goroutines.
// Shard p owns items {a in [0, N) : a % P == p} as an InsertOnly instance
// over a universe of size ceil((N-p)/P) with a seed derived from cfg.Seed.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	return build(insertOnlyKind, cfg, 0, nil)
}

// ProcessEdge feeds one occurrence: item a in [0, N) arrived with witness
// b.  The edge is buffered and handed to its shard once a full batch
// accumulates (or on Flush/Close/any barrier query).  It returns an error
// wrapping ErrOutOfUniverse for an edge outside the configured universe
// and ErrClosed after Close; in both cases nothing is fed.
func (e *Engine) ProcessEdge(a, b int64) error { return e.feedOne(Edge{A: a, B: b}, e.check) }

// ProcessEdges feeds a batch of occurrences in order.  The slice is copied
// into per-shard buffers; the caller keeps ownership of edges.  The whole
// batch is validated first and rejected atomically — on error the engine
// state is exactly as before the call.
func (e *Engine) ProcessEdges(edges []Edge) error { return e.feed(edges, e.check) }

func (e *Engine) check(i, total int, ed Edge) error { return checkEdge(i, total, ed, e.cfg.N) }

// TurnstileEngineConfig parameterises the sharded insertion-deletion
// engine.  MaxSamplers in the embedded config caps each shard separately.
type TurnstileEngineConfig struct {
	TurnstileConfig

	// Shards, BatchSize, QueueDepth behave exactly as in EngineConfig.
	Shards     int
	BatchSize  int
	QueueDepth int
}

// resolve applies defaults and clamps, mirroring EngineConfig.resolve.
func (cfg *TurnstileEngineConfig) resolve() error {
	return resolveShardParams("TurnstileEngine", cfg.N, &cfg.Shards, &cfg.BatchSize, &cfg.QueueDepth)
}

func (c TurnstileEngineConfig) dims() engineDims {
	return engineDims{c.N, c.Seed, c.Shards, c.BatchSize, c.QueueDepth}
}

// TurnstileEngine is the sharded front-end to the insertion-deletion FEwW
// algorithm: the same per-item partition and batched hand-off as Engine,
// with per-shard InsertDelete instances.  The same concurrency,
// determinism, and consistency contracts apply: safe for any number of
// goroutines, deterministic whenever a single producer fixes the update
// order, queries barrier-free against published epochs by default with
// Fresh variants for the strict barrier.  Its query is Result: a
// frequent item of the final graph with ceil(D/Alpha) live witnesses.
type TurnstileEngine struct {
	resultQueries[TurnstileEngineConfig, Update]
}

var turnstileKind = &engineKind[TurnstileEngineConfig, Update, *TurnstileEngine]{
	name: "TurnstileEngine",
	kind: engineKindTurnstile,
	header: func(c *TurnstileEngineConfig) []any {
		return []any{&c.N, &c.M, &c.D, &c.Alpha, &c.Seed, &c.ScaleFactor, &c.MaxSamplers,
			&c.Shards, &c.BatchSize, &c.QueueDepth}
	},
	item:     updateItem,
	setItem:  setUpdateItem,
	assemble: func(TurnstileEngineConfig, int64) (*TurnstileEngine, error) { return new(TurnstileEngine), nil },
	// Shard i is an InsertDelete instance; MaxSamplers caps each shard.
	open: func(e *TurnstileEngine, i int, p int64, seed uint64, r io.Reader) (shardAlgo[Update], error) {
		want := core.InsertDeleteConfig{
			N:           shardUniverse(e.cfg.N, p, i),
			M:           e.cfg.M,
			D:           e.cfg.D,
			Alpha:       e.cfg.Alpha,
			Seed:        seed,
			ScaleFactor: e.cfg.ScaleFactor,
			MaxSamplers: e.cfg.MaxSamplers,
		}
		inner, err := openChecked(want, r, core.NewInsertDelete, core.RestoreInsertDelete)
		return turnstileAlgo{inner}, err
	},
}

// NewTurnstileEngine constructs a sharded turnstile engine and starts its
// shard goroutines.  All samplers of all shards are allocated up front, as
// the underlying algorithm requires.
func NewTurnstileEngine(cfg TurnstileEngineConfig) (*TurnstileEngine, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	return build(turnstileKind, cfg, 0, nil)
}

// checkUpdate validates one signed update against the engine's universe
// and the turnstile op set; see checkEdge for why out-of-range items must
// be stopped before the shard router.
func (e *TurnstileEngine) checkUpdate(i, total int, u Update) error {
	if u.Op != stream.Insert && u.Op != stream.Delete {
		return fmt.Errorf("%w: update %d of %d: op %d", ErrInvalidOp, i, total, u.Op)
	}
	if u.A < 0 || u.A >= e.cfg.N {
		return fmt.Errorf("%w: update %d of %d: item %d not in [0, %d)", ErrOutOfUniverse, i, total, u.A, e.cfg.N)
	}
	if u.B < 0 || u.B >= e.cfg.M {
		return fmt.Errorf("%w: update %d of %d: witness %d not in [0, %d)", ErrOutOfUniverse, i, total, u.B, e.cfg.M)
	}
	return nil
}

// Insert feeds the insertion of edge (a, b).  It returns an error wrapping
// ErrOutOfUniverse for an edge outside [0, N) x [0, M) and ErrClosed after
// Close; in both cases nothing is fed.
func (e *TurnstileEngine) Insert(a, b int64) error {
	return e.feedOne(Update{Edge: Edge{A: a, B: b}, Op: stream.Insert}, e.checkUpdate)
}

// Delete feeds the deletion of edge (a, b); the edge must currently exist
// (simple-graph turnstile promise).  Errors as Insert.
func (e *TurnstileEngine) Delete(a, b int64) error {
	return e.feedOne(Update{Edge: Edge{A: a, B: b}, Op: stream.Delete}, e.checkUpdate)
}

// ProcessUpdates feeds a batch of signed updates in order.  The slice is
// copied into per-shard buffers; the caller keeps ownership of ups.  The
// whole batch is validated first and rejected atomically on error.
func (e *TurnstileEngine) ProcessUpdates(ups []Update) error { return e.feed(ups, e.checkUpdate) }
