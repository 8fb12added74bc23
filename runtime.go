// The generic sharded runtime.  Engine (insertion-only), TurnstileEngine
// (insertion-deletion), StarEngine (star detection) and WindowEngine
// (sliding-window) are thin façades over the one implementation in this
// file: the per-item residue partition, the fanout/queue/batch machinery
// (shard.go), the published core.View epochs with their fresh-barrier
// rendezvous, Drain/Close/Flush, the QueueDepths/ViewEpochs/Usage
// instrumentation, and the FEWWENG1 snapshot container.
//
// The layer above is written once too (engine.go): every façade embeds
// engineBase, which carries the lifecycle, instrumentation and Snapshot
// methods, and one constructor (build) and one FEWWENG1 decoder (restore)
// serve every kind, driven by its engineKind descriptor: kind byte and
// header field list, shard open function, assembly step.  A façade
// contributes its boundary validation, its per-shard algorithm, and its
// query-merge rules where they differ from the default.
//
// The parameterisation is deliberately small.  shardAlgo is the whole
// contract between the runtime and an algorithm: a batched mutation
// entry point over shard-local ids, an immutable query view built from
// quiescent state, and exact snapshot serialisation.  Everything the
// serving layers above rely on — barrier-free published reads that are
// never torn, published == fresh after Drain, snapshots that reflect
// exactly the accepted stream — is proved once here and inherited by
// every engine kind, present and future.

package feww

import (
	"bufio"
	"io"
	"sort"
	"sync/atomic"

	"feww/internal/core"
)

// shardAlgo is the per-shard algorithm instance hosted by the runtime:
// one partition's worth of a streaming algorithm over a sub-universe,
// owned by that shard's worker goroutine.  Apply consumes one batch of
// shard-local elements in stream order; View builds the immutable
// published query surface (only ever called by the owning worker, or
// under the runtime's barrier); Snapshot/SnapshotSize serialise the
// complete mutable state for the FEWWENG1 container.
type shardAlgo[E any] interface {
	Apply(batch []E)
	View() core.View
	// QueryBest and QueryResults are the cheap barrier-read halves of
	// View: the same Best/Results/rung surface, no size accounting, and
	// nothing the caller did not ask for.  Only ever read under the
	// runtime's barrier, within its critical section.
	QueryBest() core.View
	QueryResults() core.View
	SpaceWords() int
	Snapshot(w io.Writer) error
	SnapshotSize() int
	WitnessTarget() int64
}

// The four algorithm adapters.  Each lifts an internal/core type onto
// shardAlgo by naming its batched mutation path; every other method
// promotes from the embedded type.
type insertOnlyAlgo struct{ *core.InsertOnly }

func (a insertOnlyAlgo) Apply(batch []Edge) { a.ProcessEdges(batch) }

type turnstileAlgo struct{ *core.InsertDelete }

func (a turnstileAlgo) Apply(batch []Update) { a.ApplyUpdates(batch) }

type starAlgo struct{ *core.StarShard }

func (a starAlgo) Apply(batch []Edge) { a.ProcessEdges(batch) }

type windowAlgo struct{ *core.WindowShard }

func (a windowAlgo) Apply(batch []core.WindowUpdate) { a.WindowShard.Apply(batch) }

// rtShard is one partition: the residue class it owns, the stride P, the
// algorithm instance, and the shard's latest published result epoch.
type rtShard[E any] struct {
	idx    int   // residue class this shard owns
	stride int64 // P, the total shard count
	algo   shardAlgo[E]
	view   atomic.Pointer[publishedView]
}

// local converts a global item id owned by this shard to its local id.
func (sh *rtShard[E]) local(a int64) int64 { return a / sh.stride }

// global converts a shard-local item id back to the global id.
func (sh *rtShard[E]) global(local int64) int64 { return local*sh.stride + int64(sh.idx) }

// shardUniverse returns the size of shard i's slice of an n-item
// universe under the residue partition with stride p: ceil((n-i)/p).
// Constructors and snapshot restores must agree on this exactly, or the
// local/global id mapping breaks.
func shardUniverse(n, p int64, i int) int64 { return (n - int64(i) + p - 1) / p }

// runtime is the shared engine body.  The zero value is not usable;
// build one with newRuntime.
type engineRuntime[E any] struct {
	shards      []*rtShard[E]
	f           *fanout[E]
	headerBytes int // container header size, for Usage/UsageFresh
}

// newRuntime assembles shards around the given algorithm instances —
// freshly built by a façade constructor, or restored from a snapshot —
// and starts the shard workers.  count is the number of elements the
// stream already holds (0, or a restored snapshot's count): it seeds the
// position counter and every lane's admission sequence, so the first
// reservation continues exactly where the snapshotted stream stopped.
// item extracts an element's global item id (the routing key); setItem
// rewrites it, which is how batches are remapped to shard-local ids in
// place before Apply.  Each shard's
// epoch-0 view is published before any worker starts, so the
// barrier-free query path is valid from the first instant (and, after a
// restore, already reflects the restored state).
func newRuntime[E any](name string, batchSize, queueDepth, headerBytes int, count int64,
	item func(E) int64, setItem func(*E, int64), algos []shardAlgo[E]) *engineRuntime[E] {
	p := int64(len(algos))
	shards := make([]*rtShard[E], len(algos))
	apply := make([]func([]E), len(algos))
	publish := make([]func(), len(algos))
	for i, algo := range algos {
		sh := &rtShard[E]{idx: i, stride: p, algo: algo}
		sh.view.Store(&publishedView{View: algo.View()})
		shards[i] = sh
		// The worker remaps the batch to local ids in place (it owns the
		// buffer) and feeds the batched path of the inner algorithm.
		apply[i] = func(batch []E) {
			for j := range batch {
				setItem(&batch[j], sh.local(item(batch[j])))
			}
			sh.algo.Apply(batch)
		}
		// Only shard i's worker calls this, so the read-modify-write of
		// the epoch counter is single-writer and the inner state is quiet.
		publish[i] = func() {
			sh.view.Store(&publishedView{View: sh.algo.View(), Epoch: sh.view.Load().Epoch + 1})
		}
	}
	f := newFanout(name, batchSize, queueDepth, item, apply, publish)
	f.count.Store(count)
	for i := range f.lanes {
		f.lanes[i].nextBase = count // no producer can hold the fanout yet
	}
	return &engineRuntime[E]{shards: shards, f: f, headerBytes: headerBytes}
}

// forEachView visits every shard's query view in shard order until fn
// returns true.  With fresh false it reads the latest published epochs —
// no locking, no stall, the default consistency.  With fresh true it
// takes the strict barrier and reads each shard with the given accessor
// (QueryBest or QueryResults) from quiescent state, so the visit reflects
// every element fed before the call without paying the publication path's
// size accounting inside the barrier.  Both paths hand fn the same View
// shape, which is what makes published and fresh answers coincide
// byte-for-byte on drained state.
func (rt *engineRuntime[E]) forEachView(fresh bool, read func(shardAlgo[E]) core.View, fn func(sh *rtShard[E], v *core.View) (stop bool)) {
	if fresh {
		rt.f.query(func() {
			for _, sh := range rt.shards {
				if v := read(sh.algo); fn(sh, &v) {
					return
				}
			}
		})
		return
	}
	for _, sh := range rt.shards {
		if fn(sh, &sh.view.Load().View) {
			return
		}
	}
}

// result returns the first full-target neighbourhood in shard order —
// the smallest-id frequent item of the lowest-index shard holding one —
// or ErrNoWitness.  The same selection under both consistencies.  Both
// paths stop at the first shard holding a result: the fresh barrier
// window must not grow with the shards behind the answer.
func (rt *engineRuntime[E]) result(fresh bool) (Neighbourhood, error) {
	nb, err := Neighbourhood{}, error(ErrNoWitness)
	rt.forEachView(fresh, shardAlgo[E].QueryResults, func(sh *rtShard[E], v *core.View) bool {
		if len(v.Results) == 0 {
			return false
		}
		nb, err = v.Results[0], nil
		nb.A = sh.global(nb.A)
		return true
	})
	return nb, err
}

// results concatenates every shard's full-target neighbourhoods, sorted
// by global item id.  The per-item partition guarantees no item is
// reported by two shards, so the merge is a pure concatenation.
func (rt *engineRuntime[E]) results(fresh bool) []Neighbourhood {
	var out []Neighbourhood
	rt.forEachView(fresh, shardAlgo[E].QueryResults, func(sh *rtShard[E], v *core.View) bool {
		for _, nb := range v.Results {
			nb.A = sh.global(nb.A)
			out = append(out, nb)
		}
		return false
	})
	sort.Slice(out, func(i, j int) bool { return out[i].A < out[j].A })
	return out
}

// best max-selects the largest view Best across shards, ties breaking
// toward the lower shard index; found is false only if no shard holds
// anything.
func (rt *engineRuntime[E]) best(fresh bool) (Neighbourhood, bool) {
	var best Neighbourhood
	found := false
	rt.forEachView(fresh, shardAlgo[E].QueryBest, func(sh *rtShard[E], v *core.View) bool {
		if v.BestOK && (!found || v.Best.Size() > best.Size()) {
			nb := v.Best
			nb.A = sh.global(nb.A)
			best, found = nb, true
		}
		return false
	})
	return best, found
}

// usage reports SpaceWords and SnapshotSize together: from the published
// epochs (a few atomic loads, what periodic stats polls should call) or
// exact under one quiesce.
func (rt *engineRuntime[E]) usage(fresh bool) (spaceWords, snapshotBytes int) {
	snapshotBytes = rt.headerBytes
	if fresh {
		rt.f.query(func() {
			for _, sh := range rt.shards {
				spaceWords += sh.algo.SpaceWords()
				snapshotBytes += 8 + sh.algo.SnapshotSize()
			}
		})
		return spaceWords, snapshotBytes
	}
	for _, sh := range rt.shards {
		v := sh.view.Load()
		spaceWords += v.SpaceWords
		snapshotBytes += 8 + v.SnapshotBytes
	}
	return spaceWords, snapshotBytes
}

// snapshot writes the FEWWENG1 container under the runtime's quiesce:
// magic, the engine kind byte, the kind-specific header words, the
// producer-side element counter, then every shard's length-prefixed
// algorithm snapshot in shard order.  The queues are empty at the
// instant of serialisation, so every element the engine accepted is
// inside some shard's state.
func (rt *engineRuntime[E]) snapshot(w io.Writer, kind byte, header []any) error {
	var err error
	rt.f.query(func() {
		bw := bufio.NewWriter(w)
		enc := &wordEncoder{w: bw}
		enc.bytes(engineSnapMagic[:])
		enc.bytes([]byte{kind})
		for _, h := range header {
			enc.field(h)
		}
		enc.u64(uint64(rt.f.count.Load()))
		for _, sh := range rt.shards {
			enc.u64(uint64(sh.algo.SnapshotSize()))
			if enc.err == nil {
				enc.err = sh.algo.Snapshot(bw)
			}
		}
		if enc.err != nil {
			err = enc.err
			return
		}
		err = bw.Flush()
	})
	return err
}
