package server

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"feww"
)

// Backend is the engine surface fewwd serves: the insertion-only Engine,
// the TurnstileEngine, the StarEngine, or the sliding-window WindowEngine
// behind one adapter interface.
// All engines are façades over the same generic sharded runtime and are
// internally safe for concurrent use, so Backend methods may be called
// from any number of request handlers at once.
//
// Queries take a fresh flag selecting the consistency: false reads the
// shards' latest published result epochs (barrier-free — never stalls
// ingest, never serialises with other queries, lags the accepted stream
// by the in-flight batches plus a short publication throttle), true
// takes the strict barrier and reflects every update accepted before
// the call.
type Backend interface {
	// Kind is "insert-only", "turnstile", "star" or "window", reported by
	// /stats and /healthz (where the cluster gateway verifies it per
	// member).
	Kind() string
	// Ingest applies a batch of updates in order.  The engine validates
	// every update against its universe before feeding anything, so a
	// rejected batch leaves the engine untouched; the error wraps
	// feww.ErrOutOfUniverse for out-of-range elements, feww.ErrInvalidOp
	// for a bad op, and feww.ErrClosed when the engine is shutting down.
	// Star backends consume the stream as directed half-edges (the
	// double cover is materialised by the producer).
	Ingest(ups []feww.Update) error
	// Flush hands buffered updates to the shard queues without waiting,
	// bounding how far the published epochs lag a completed request.
	Flush() error
	// Best returns the largest neighbourhood collected so far (for the
	// turnstile engine: the Result neighbourhood; for the star engine:
	// the best star, rung-annotated).
	Best(fresh bool) BestAnswer
	// Results returns every full-target neighbourhood found (for the
	// star engine: every center certified at the winning rung).
	Results(fresh bool) ResultsAnswer
	// Processed returns the number of stream elements accepted.
	Processed() int64
	// Shards returns the engine's partition count.
	Shards() int
	// Snapshot serialises the engine state; Restore* round-trips it.
	Snapshot(w io.Writer) error
	// Close drains and stops the engine; the backend stays queryable.
	Close()

	// health and stats are the engine's part of the /healthz and /stats
	// payloads; stats reads the published epochs, or quiesces once when
	// fresh.
	health() HealthResponse
	stats(fresh bool) StatsResponse
}

// BestAnswer is a backend's /best reply.  WitnessTarget is the target
// the answer is judged against: the engine's static ceil(D/Alpha) for
// the flat engines; for the star engine the winning rung's target when
// Found, the ladder ceiling otherwise.  Rung and Guess annotate star
// answers with the certifying ladder position; Rung is -1 for the flat
// engines.
type BestAnswer struct {
	Neighbourhood feww.Neighbourhood
	Found         bool
	WitnessTarget int64
	Rung          int
	Guess         int64
}

// ResultsAnswer is a backend's /results reply; Rung and Guess are -1/0
// for the flat engines, the winning rung for the star engine.
type ResultsAnswer struct {
	Neighbourhoods []feww.Neighbourhood
	Rung           int
	Guess          int64
}

// engine is the surface every engine façade shares through its base type.
type engine interface {
	Flush() error
	Processed() int64
	Shards() int
	QueueDepths() []int
	ViewEpochs() []uint64
	WitnessTarget() int64
	Usage() (spaceWords, snapshotBytes int)
	UsageFresh() (spaceWords, snapshotBytes int)
	Closed() bool
	Snapshot(w io.Writer) error
	Close()
}

// backend is the one Backend implementation: an engine's shared surface
// plus the few parts that differ per kind.
type backend struct {
	engine
	kind string
	// n and m are the universe sizes /healthz reports for the gateway's
	// range check; m is 0 where witnesses are unbounded.
	n, m        int64
	ingest      func(ups []feww.Update) error
	best        func(fresh bool) BestAnswer    // shapes the kind's /best
	results     func(fresh bool) ResultsAnswer // shapes the kind's /results
	healthExtra func(h *HealthResponse)        // optional /healthz fields
	statsExtra  func(st *StatsResponse)        // optional /stats fields
}

func (b *backend) Kind() string                     { return b.kind }
func (b *backend) Ingest(ups []feww.Update) error   { return b.ingest(ups) }
func (b *backend) Best(fresh bool) BestAnswer       { return b.best(fresh) }
func (b *backend) Results(fresh bool) ResultsAnswer { return b.results(fresh) }

func (b *backend) health() HealthResponse {
	h := HealthResponse{
		Engine:        b.kind,
		Serving:       !b.Closed(),
		N:             b.n,
		M:             b.m,
		WitnessTarget: b.WitnessTarget(),
		Shards:        b.Shards(),
		Elements:      b.Processed(),
	}
	if b.healthExtra != nil {
		b.healthExtra(&h)
	}
	return h
}

func (b *backend) stats(fresh bool) StatsResponse {
	st := StatsResponse{
		Engine:        b.kind,
		Consistency:   pick(fresh, "published", "fresh"),
		Shards:        b.Shards(),
		Elements:      b.Processed(),
		QueueDepths:   b.QueueDepths(),
		ViewEpochs:    b.ViewEpochs(),
		WitnessTarget: b.WitnessTarget(),
	}
	st.SpaceWords, st.SnapshotBytes = pick(fresh, b.Usage, b.UsageFresh)()
	if b.statsExtra != nil {
		b.statsExtra(&st)
	}
	return st
}

// pick selects the published or the fresh variant of an engine query.
func pick[F any](fresh bool, published, freshVariant F) F {
	if fresh {
		return freshVariant
	}
	return published
}

// NewInsertOnlyBackend wraps a sharded insertion-only engine.
func NewInsertOnlyBackend(e *feww.Engine) Backend {
	return flatBackend(e, "insert-only", e.Config().N, insertIngest("insertion-only engine", e.ProcessEdges))
}

// NewTurnstileBackend wraps a sharded insertion-deletion engine.  Ingest
// delegates validation entirely to the engine boundary: ops, items, and
// witnesses are all checked there before anything is fed.  Best is the
// engine's Result: the L0-sampler queries only certify neighbourhoods
// once they reach the witness target, so there is no meaningful "largest
// partial" to report.
func NewTurnstileBackend(e *feww.TurnstileEngine) Backend {
	result := func(fresh bool) (feww.Neighbourhood, error) { return pick(fresh, e.Result, e.ResultFresh)() }
	return &backend{
		engine: e,
		kind:   "turnstile",
		n:      e.Config().N,
		m:      e.Config().M,
		ingest: e.ProcessUpdates,
		best: func(fresh bool) BestAnswer {
			nb, err := result(fresh)
			return BestAnswer{Neighbourhood: nb, Found: err == nil, WitnessTarget: e.WitnessTarget(), Rung: -1}
		},
		results: func(fresh bool) ResultsAnswer {
			out := ResultsAnswer{Rung: -1}
			if nb, err := result(fresh); err == nil {
				out.Neighbourhoods = []feww.Neighbourhood{nb}
			}
			return out
		},
	}
}

// NewStarBackend wraps a sharded star-detection engine.  It ingests the
// double cover as directed half-edges, so a gateway can range-route it by
// center; /healthz reports the ladder length, on which cluster members
// must agree for their rung indices to merge.
func NewStarBackend(e *feww.StarEngine) Backend {
	return &backend{
		engine: e,
		kind:   "star",
		n:      e.Config().N,
		m:      e.Config().M,
		ingest: insertIngest("star engine", e.ProcessHalfEdges),
		best: func(fresh bool) BestAnswer {
			sr, ok := pick(fresh, e.Best, e.BestFresh)()
			if !ok {
				return BestAnswer{WitnessTarget: e.WitnessTarget(), Rung: -1}
			}
			return BestAnswer{Neighbourhood: sr.Neighbourhood, Found: true, WitnessTarget: sr.Target, Rung: sr.Rung, Guess: sr.Guess}
		},
		results: func(fresh bool) ResultsAnswer {
			res := pick(fresh, e.Results, e.ResultsFresh)()
			return ResultsAnswer{Neighbourhoods: res.Neighbourhoods, Rung: res.Rung, Guess: res.Guess}
		},
		healthExtra: func(h *HealthResponse) { h.Rungs = len(e.Guesses()) },
	}
}

// NewWindowBackend wraps a sharded sliding-window engine (a window
// forgets by aging out, so deletions are rejected).  /healthz reports the
// geometry members must share to compose one global window; /stats adds
// the served span.
func NewWindowBackend(e *feww.WindowEngine) Backend {
	b := flatBackend(e, "window", e.Config().N, insertIngest("sliding-window engine", e.ProcessEdges))
	b.healthExtra = func(h *HealthResponse) { h.Window, h.WindowBuckets = e.Window(), e.Buckets() }
	b.statsExtra = func(st *StatsResponse) {
		st.Window, st.WindowBuckets = e.Window(), e.Buckets()
		st.WindowStart, st.WindowEnd = e.WindowSpan()
	}
	return b
}

// flatEngine is the query surface of the flat kinds, Engine and
// WindowEngine.
type flatEngine interface {
	engine
	Best() (feww.Neighbourhood, bool)
	BestFresh() (feww.Neighbourhood, bool)
	Results() []feww.Neighbourhood
	ResultsFresh() []feww.Neighbourhood
}

// flatBackend shapes a flat kind's answers: Best against the static
// ceil(D/Alpha) target, Results as reported, no rung annotation.
func flatBackend(e flatEngine, kind string, n int64, ingest func([]feww.Update) error) *backend {
	return &backend{
		engine: e,
		kind:   kind,
		n:      n,
		ingest: ingest,
		best: func(fresh bool) BestAnswer {
			nb, ok := pick(fresh, e.Best, e.BestFresh)()
			return BestAnswer{Neighbourhood: nb, Found: ok, WitnessTarget: e.WitnessTarget(), Rung: -1}
		},
		results: func(fresh bool) ResultsAnswer {
			return ResultsAnswer{Neighbourhoods: pick(fresh, e.Results, e.ResultsFresh)(), Rung: -1}
		},
	}
}

// edgeBufPool recycles the []Edge conversion buffers of the insert-only,
// star and window ingest paths (mirroring the *[]E batch recycling inside
// the engine fanout), so a sustained ingest stream stops allocating a
// batch-sized slice per request chunk.  The engines copy batches into
// their own per-shard buffers before ProcessEdges/ProcessHalfEdges
// returns, which is what makes returning the buffer immediately
// afterwards safe.
var edgeBufPool = sync.Pool{New: func() any { buf := make([]feww.Edge, 0, 4096); return &buf }}

// insertIngest is the ingest path of a kind that feeds on unsigned edges.
// The op check lives here (the edge type the engine feeds on has no
// sign), rejecting deletions with a pointer at the turnstile mode;
// universe validation is the engine's own boundary check, so a hostile id
// can never reach the shard router no matter who calls.
func insertIngest(engine string, process func([]feww.Edge) error) func([]feww.Update) error {
	return func(ups []feww.Update) error {
		for i, u := range ups {
			if u.Op != feww.Insert {
				return fmt.Errorf("update %d of %d: %v: %s cannot apply deletions (run the service in turnstile mode)", i, len(ups), u, engine)
			}
		}
		bufp := edgeBufPool.Get().(*[]feww.Edge)
		edges := (*bufp)[:0]
		for _, u := range ups {
			edges = append(edges, u.Edge)
		}
		err := process(edges)
		*bufp = edges[:0]
		edgeBufPool.Put(bufp)
		return err
	}
}

// restorers holds, at each FEWWENG1 kind byte, that kind's restore
// wrapped into its backend.
var restorers = [...]func(io.Reader) (Backend, error){
	restoreAs(feww.RestoreEngine, NewInsertOnlyBackend),
	restoreAs(feww.RestoreTurnstileEngine, NewTurnstileBackend),
	restoreAs(feww.RestoreStarEngine, NewStarBackend),
	restoreAs(feww.RestoreWindowEngine, NewWindowBackend),
}

func restoreAs[E any](restore func(io.Reader) (E, error), wrap func(E) Backend) func(io.Reader) (Backend, error) {
	return func(r io.Reader) (Backend, error) {
		e, err := restore(r)
		if err != nil {
			return nil, err
		}
		return wrap(e), nil
	}
}

// RestoreBackend reads an engine snapshot — a checkpoint file, or the
// bytes of GET /snapshot — sniffs which engine kind it holds, and returns
// a running backend of that kind.  This is the paper's one-way protocol
// made operational: party i's memory state restored by party i+1.
func RestoreBackend(r io.Reader) (Backend, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(9)
	if err != nil {
		return nil, fmt.Errorf("%w: reading engine snapshot header: %v", feww.ErrBadSnapshot, err)
	}
	if int(head[8]) >= len(restorers) {
		return nil, fmt.Errorf("%w: unknown engine kind %d", feww.ErrBadSnapshot, head[8])
	}
	return restorers[head[8]](br)
}
