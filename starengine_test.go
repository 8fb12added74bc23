package feww

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// undirectedStar returns the double-cover half-edges of a star: center c
// connected to neighbours ns, both orientations per edge.
func undirectedStar(c int64, ns []int64) []Edge {
	var out []Edge
	for _, v := range ns {
		out = append(out, Edge{A: c, B: v}, Edge{A: v, B: c})
	}
	return out
}

// seqRange returns [lo, lo+k).
func seqRange(lo int64, k int64) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

func TestStarEngineFindsPlantedStar(t *testing.T) {
	const n = 64
	eng, err := NewStarEngine(StarEngineConfig{
		N: n, Alpha: 1, Eps: 0.5, Seed: 11,
		Shards: 4, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Center 7 gets 20 neighbours; background vertices stay below degree 4.
	if err := eng.ProcessHalfEdges(undirectedStar(7, seqRange(30, 20))); err != nil {
		t.Fatal(err)
	}
	for _, u := range []int64{2, 9, 13} {
		if err := eng.ProcessEdge(u, u+10); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	best, ok := eng.BestFresh()
	if !ok || best.A != 7 {
		t.Fatalf("BestFresh = %+v, %v; want center 7", best, ok)
	}
	// Ladder over M = 64 with eps 0.5: the largest guess <= 20 is 18, and
	// alpha = 1 makes the certified size equal to the guess.
	if best.Guess != 18 || best.Target != 18 || int64(best.Size()) != 18 {
		t.Fatalf("best guess/target/size = %d/%d/%d, want 18/18/18", best.Guess, best.Target, best.Size())
	}
	if guesses := eng.Guesses(); guesses[best.Rung] != best.Guess {
		t.Fatalf("rung %d maps to guess %d, result says %d", best.Rung, guesses[best.Rung], best.Guess)
	}
	// The witnesses are genuine neighbours of 7, in arrival order.
	for i, w := range best.Witnesses {
		if w != 30+int64(i) {
			t.Fatalf("witnesses = %v, want the first 18 neighbours in order", best.Witnesses)
		}
	}

	res := eng.ResultsFresh()
	if res.Rung != best.Rung || len(res.Neighbourhoods) != 1 || res.Neighbourhoods[0].A != 7 {
		t.Fatalf("ResultsFresh = %+v, want exactly center 7 at rung %d", res, best.Rung)
	}

	// Published == fresh after drain, including the star-specific fields.
	if pb, pok := eng.Best(); !pok || !reflect.DeepEqual(pb, best) {
		t.Fatalf("published Best %+v != fresh %+v", pb, best)
	}
	if pr := eng.Results(); !reflect.DeepEqual(pr, res) {
		t.Fatalf("published Results %+v != fresh %+v", pr, res)
	}
	if got, want := eng.SpaceWords(), eng.SpaceWordsFresh(); got != want {
		t.Fatalf("published SpaceWords %d != fresh %d", got, want)
	}
	gotW, gotB := eng.Usage()
	wantW, wantB := eng.UsageFresh()
	if gotW != wantW || gotB != wantB {
		t.Fatalf("published Usage (%d, %d) != fresh (%d, %d)", gotW, gotB, wantW, wantB)
	}
}

// TestStarEngineDeterministic: same seed, same stream => identical
// results regardless of batch size.
func TestStarEngineDeterministic(t *testing.T) {
	stream := undirectedStar(5, seqRange(20, 13))
	stream = append(stream, undirectedStar(40, seqRange(8, 6))...)
	run := func(batch int) StarResults {
		eng, err := NewStarEngine(StarEngineConfig{
			N: 64, Alpha: 2, Eps: 0.5, Seed: 3, Shards: 3, BatchSize: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.ProcessHalfEdges(stream); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		return eng.Results()
	}
	if a, b := run(1), run(64); !reflect.DeepEqual(a, b) {
		t.Fatalf("batch size changed the answer:\n%+v\n%+v", a, b)
	}
}

func TestStarEngineValidatesUniverse(t *testing.T) {
	eng, err := NewStarEngine(StarEngineConfig{N: 8, M: 16, Alpha: 1, Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if err := eng.ProcessHalfEdge(-1, 0); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("negative center = %v, want ErrOutOfUniverse", err)
	}
	if err := eng.ProcessHalfEdge(8, 0); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("center == N = %v, want ErrOutOfUniverse", err)
	}
	if err := eng.ProcessHalfEdge(0, 16); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("neighbour == M = %v, want ErrOutOfUniverse", err)
	}
	// On a range member (N < M), ProcessEdge cannot mirror a neighbour
	// outside the slice.
	if err := eng.ProcessEdge(1, 12); !errors.Is(err, ErrOutOfUniverse) {
		t.Errorf("undirected mirror outside the slice = %v, want ErrOutOfUniverse", err)
	}
	if got := eng.Processed(); got != 0 {
		t.Fatalf("rejected feeds reached the engine: %d half-edges", got)
	}
	eng.Close()
	if err := eng.ProcessHalfEdge(1, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("feed after Close = %v, want ErrClosed", err)
	}
}

// TestStarEngineSnapshotRoundTrip pins byte-identical continuation
// through the kind-2 FEWWENG1 container.
func TestStarEngineSnapshotRoundTrip(t *testing.T) {
	eng, err := NewStarEngine(StarEngineConfig{
		N: 32, Alpha: 1, Eps: 0.5, Seed: 21, Shards: 3, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pre := undirectedStar(9, seqRange(12, 8))
	post := undirectedStar(9, seqRange(20, 7))
	if err := eng.ProcessHalfEdges(pre); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Len() != eng.SnapshotSize() {
		t.Fatalf("snapshot wrote %d bytes, SnapshotSize said %d", snap.Len(), eng.SnapshotSize())
	}

	restored, err := RestoreStarEngine(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Processed() != eng.Processed() {
		t.Fatalf("restored count %d != %d", restored.Processed(), eng.Processed())
	}
	if !reflect.DeepEqual(restored.Config(), eng.Config()) {
		t.Fatalf("restored config %+v != %+v", restored.Config(), eng.Config())
	}

	for _, pair := range [][2]*StarEngine{{eng, restored}} {
		for _, e := range pair {
			if err := e.ProcessHalfEdges(post); err != nil {
				t.Fatal(err)
			}
			e.Close()
		}
	}
	if a, b := eng.Results(), restored.Results(); !reflect.DeepEqual(a, b) {
		t.Fatalf("restored continuation diverged:\n%+v\n%+v", a, b)
	}
	var sa, sb bytes.Buffer
	if err := eng.Snapshot(&sa); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("continuation snapshots are not byte-identical")
	}

	// Cross-kind restore attempts fail cleanly.
	if _, err := RestoreEngine(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("RestoreEngine on a star snapshot = %v, want ErrBadSnapshot", err)
	}
	if _, err := RestoreTurnstileEngine(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("RestoreTurnstileEngine on a star snapshot = %v, want ErrBadSnapshot", err)
	}

	// A hostile header whose Eps bits encode NaN must fail as
	// ErrBadSnapshot, not hang the ladder derivation (NaN slips past
	// every `<= 0` comparison).  Eps sits after magic(8) + kind(1) +
	// N(8) + M(8) + Alpha(8).
	hostile := append([]byte(nil), snap.Bytes()...)
	binary.LittleEndian.PutUint64(hostile[8+1+3*8:], math.Float64bits(math.NaN()))
	if _, err := RestoreStarEngine(bytes.NewReader(hostile)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("RestoreStarEngine with NaN eps = %v, want ErrBadSnapshot", err)
	}
}

// TestStarEngineRejectsNonFiniteEps: NaN and Inf must fail construction
// instead of hanging the guess-ladder loop.
func TestStarEngineRejectsNonFiniteEps(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1), -0.5} {
		if _, err := NewStarEngine(StarEngineConfig{N: 10, Eps: eps, Alpha: 1}); err == nil {
			t.Errorf("NewStarEngine accepted eps = %f", eps)
		}
	}
}

// TestStarPublishedQueriesNeverTornUnderIngest is the StarEngine
// counterpart of the flat engines' torn-view invariant: while a producer
// feeds a growing star per center at full rate, concurrent barrier-free
// readers must only ever see internally consistent answers — witnesses
// that belong to the reported center, sizes consistent with the reported
// rung's target, and monotone epochs.  Run under -race this also
// validates the publication discipline for the ladder views.
func TestStarPublishedQueriesNeverTornUnderIngest(t *testing.T) {
	const (
		n       = 32
		deg     = 128
		readers = 4
	)
	prevInterval := publishMinInterval
	publishMinInterval = 0
	defer func() { publishMinInterval = prevInterval }()
	eng, err := NewStarEngine(StarEngineConfig{
		N: n, M: n * (deg + 1), Alpha: 1, Eps: 0.5, Seed: 13,
		Shards: 4, BatchSize: 16, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		done.Store(true)
		t.Errorf(format, args...)
	}
	// Witness encoding: center c's neighbours are c*(deg+1)+1 ... so a
	// witness from another center's slice marks a torn view.  (Centers
	// themselves never appear as witnesses under this scheme.)
	checkNb := func(nb Neighbourhood, target int64) {
		if nb.A < 0 || nb.A >= n {
			fail("published center %d outside the universe", nb.A)
			return
		}
		if int64(nb.Size()) > target {
			fail("neighbourhood for %d has %d witnesses, above the rung target %d", nb.A, nb.Size(), target)
		}
		seen := make(map[int64]bool, len(nb.Witnesses))
		for _, w := range nb.Witnesses {
			if w/(deg+1) != nb.A || w%(deg+1) == 0 {
				fail("witness %d does not belong to center %d: torn view", w, nb.A)
			}
			if seen[w] {
				fail("duplicate witness %d for center %d", w, nb.A)
			}
			seen[w] = true
		}
	}
	guesses := eng.Guesses()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevEpochs := eng.ViewEpochs()
			prevRung := -1
			for !done.Load() {
				if best, ok := eng.Best(); ok {
					if best.Rung < 0 || best.Rung >= len(guesses) ||
						guesses[best.Rung] != best.Guess || best.Target != best.Guess {
						fail("inconsistent rung labelling: %+v (alpha 1)", best)
					}
					checkNb(best.Neighbourhood, best.Target)
					// Insertion-only ladders only climb: the winning rung
					// a single reader observes must never go down.
					if best.Rung < prevRung {
						fail("winning rung went backwards: %d -> %d", prevRung, best.Rung)
					}
					prevRung = best.Rung
				}
				res := eng.Results()
				for _, nb := range res.Neighbourhoods {
					checkNb(nb, res.Target)
				}
				epochs := eng.ViewEpochs()
				for i := range epochs {
					if epochs[i] < prevEpochs[i] {
						fail("shard %d epoch went backwards: %d -> %d", i, prevEpochs[i], epochs[i])
					}
				}
				prevEpochs = epochs
			}
		}()
	}

	// Single producer: every center's star grows to degree deg, witnesses
	// encoded per center; both orientations fed (the mirrored direction
	// lands on out-of-slice centers only when M > N, so here only the
	// forward halves target real centers — feed them directly).
	for j := int64(1); j <= deg && !done.Load(); j++ {
		batch := make([]Edge, 0, n)
		for c := int64(0); c < n; c++ {
			batch = append(batch, Edge{A: c, B: c*(deg+1) + j})
		}
		if err := eng.ProcessHalfEdges(batch); err != nil {
			t.Errorf("ProcessHalfEdges: %v", err)
			break
		}
	}
	done.Store(true)
	wg.Wait()

	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	res := eng.Results()
	if !reflect.DeepEqual(res, eng.ResultsFresh()) {
		t.Fatal("after drain: published Results differ from fresh Results")
	}
	if len(res.Neighbourhoods) == 0 {
		t.Fatal("after drain: no certified centers on a satisfied promise")
	}
}
