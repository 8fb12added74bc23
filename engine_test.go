package feww

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"feww/internal/stream"
	"feww/internal/workload"
	"feww/internal/xrand"
)

// engineStream builds a deterministic insert-only stream with the given
// heavy items, each receiving degree distinct witnesses, drowned in light
// noise traffic, and returns the stream plus the true edge set.
func engineStream(heavy []int64, degree int64, n int64) ([]Edge, map[Edge]bool) {
	truth := make(map[Edge]bool)
	var edges []Edge
	for j := int64(0); j < degree; j++ {
		for _, a := range heavy {
			edges = append(edges, Edge{A: a, B: a*100000 + j})
		}
		// Noise: a rotating band of light items, 3 occurrences each overall.
		if j < 3 {
			for a := n / 2; a < n/2+200; a++ {
				edges = append(edges, Edge{A: a, B: j})
			}
		}
	}
	for _, e := range edges {
		truth[e] = true
	}
	return edges, truth
}

// TestEngineResultsAcrossShards plants simultaneously-frequent items that
// land in different shards (items 0..3 with 4 shards hit residues 0..3)
// and checks every one is reported with a full, genuine witness set: shard
// merging must neither drop a shard's findings nor fabricate witnesses.
func TestEngineResultsAcrossShards(t *testing.T) {
	const (
		n      = 1000
		d      = 64
		shards = 4
	)
	heavy := []int64{0, 1, 2, 3, 17, 42, 999}
	edges, truth := engineStream(heavy, d, n)

	eng, err := NewEngine(EngineConfig{
		Config: Config{N: n, D: d, Alpha: 2, Seed: 7},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", eng.Shards(), shards)
	}
	eng.ProcessEdges(edges)
	eng.Drain() // make every fed edge visible to the published query path

	results := eng.Results()
	byItem := make(map[int64]Neighbourhood)
	for _, nb := range results {
		byItem[nb.A] = nb
	}
	for _, a := range heavy {
		nb, ok := byItem[a]
		if !ok {
			t.Fatalf("heavy item %d missing from Results() = %v", a, results)
		}
		if int64(nb.Size()) < eng.WitnessTarget() {
			t.Errorf("item %d reported with %d witnesses, want >= %d", a, nb.Size(), eng.WitnessTarget())
		}
	}
	// No fabricated items or witnesses anywhere in the merged output.
	for _, nb := range results {
		seen := make(map[int64]bool)
		for _, w := range nb.Witnesses {
			if !truth[Edge{A: nb.A, B: w}] {
				t.Fatalf("fabricated witness: edge (%d, %d) never appeared in the stream", nb.A, w)
			}
			if seen[w] {
				t.Fatalf("duplicate witness %d for item %d", w, nb.A)
			}
			seen[w] = true
		}
	}
	// Results is sorted by global item id.
	for i := 1; i < len(results); i++ {
		if results[i-1].A >= results[i].A {
			t.Fatalf("Results not sorted: %v", results)
		}
	}

	if got := eng.Processed(); got != int64(len(edges)) {
		t.Fatalf("Processed = %d, want %d", got, len(edges))
	}
	if sw := eng.SpaceWords(); sw <= 0 {
		t.Fatalf("SpaceWords = %d, want > 0", sw)
	}
}

// TestEngineDeterminism is the acceptance check for the concurrent path: a
// fixed seed must give byte-identical Results across executions, shard
// scheduling, batch sizes, and per-edge vs batched feeding.
func TestEngineDeterminism(t *testing.T) {
	inst, err := workload.NewPlanted(workload.PlantedConfig{
		N: 20000, M: 80000, Heavy: 5, HeavyDeg: 600,
		NoiseEdges: 20000, Order: workload.Shuffled, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, len(inst.Updates))
	for i, u := range inst.Updates {
		edges[i] = u.Edge
	}

	run := func(batchSize int, perEdge bool) []Neighbourhood {
		eng, err := NewEngine(EngineConfig{
			Config:    Config{N: 20000, D: 600, Alpha: 2, Seed: 11},
			Shards:    4,
			BatchSize: batchSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if perEdge {
			for _, e := range edges {
				eng.ProcessEdge(e.A, e.B)
			}
		} else {
			eng.ProcessEdges(edges)
		}
		eng.Drain()
		return eng.Results()
	}

	base := run(0, false)
	if len(base) == 0 {
		t.Fatal("no results on a satisfied promise")
	}
	for name, got := range map[string][]Neighbourhood{
		"rerun":        run(0, false),
		"batchSize=1":  run(1, false),
		"batchSize=33": run(33, false),
		"per-edge":     run(0, true),
	} {
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s diverged:\nbase: %v\ngot:  %v", name, base, got)
		}
	}
}

// TestEngineMidStreamQueries exercises the strict barrier path: Fresh
// queries during the stream must reflect everything fed so far and must
// not disturb ingest.
func TestEngineMidStreamQueries(t *testing.T) {
	const n, d = 500, 40
	edges, truth := engineStream([]int64{5, 6}, d, n)

	eng, err := NewEngine(EngineConfig{
		Config: Config{N: n, D: d, Alpha: 2, Seed: 1},
		Shards: 3, BatchSize: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := len(edges) / 2
	eng.ProcessEdges(edges[:half])
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Processed(); got != int64(half) {
		t.Fatalf("Processed mid-stream = %d, want %d", got, half)
	}
	eng.ProcessEdges(edges[half:])

	nb, err := eng.ResultFresh()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range nb.Witnesses {
		if !truth[Edge{A: nb.A, B: w}] {
			t.Fatalf("fabricated witness (%d, %d)", nb.A, w)
		}
	}
	best, found := eng.BestFresh()
	if !found || best.Size() < nb.Size() {
		t.Fatalf("BestFresh() = %v, %v; want a neighbourhood at least as large as ResultFresh's", best, found)
	}

	// Close is idempotent and the engine stays queryable afterwards, on
	// both consistencies: the final published epoch is the full stream.
	eng.Close()
	eng.Close()
	if got := eng.Processed(); got != int64(len(edges)) {
		t.Fatalf("Processed after Close = %d, want %d", got, len(edges))
	}
	if _, err := eng.Result(); err != nil {
		t.Fatalf("Result after Close: %v", err)
	}
	if _, err := eng.ResultFresh(); err != nil {
		t.Fatalf("ResultFresh after Close: %v", err)
	}
	// Feeding after Close is a clean error, not a panic: a server can turn
	// an ingest racing shutdown into a 503.
	if err := eng.ProcessEdge(1, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("ProcessEdge after Close = %v, want ErrClosed", err)
	}
	if err := eng.ProcessEdges(edges[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ProcessEdges after Close = %v, want ErrClosed", err)
	}
	if err := eng.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := eng.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Config: Config{N: 0, D: 1, Alpha: 1}}); err == nil {
		t.Error("N = 0 accepted")
	}
	if _, err := NewEngine(EngineConfig{Config: Config{N: 10, D: 0, Alpha: 1}}); err == nil {
		t.Error("D = 0 accepted")
	}
	// More shards than items: clamped to N, not rejected.
	eng, err := NewEngine(EngineConfig{Config: Config{N: 3, D: 2, Alpha: 1, Seed: 1}, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() != 3 {
		t.Errorf("Shards clamped to %d, want 3", eng.Shards())
	}
	eng.ProcessEdge(0, 1)
	eng.ProcessEdge(0, 2)
	eng.Drain()
	if nb, err := eng.Result(); err != nil || nb.A != 0 {
		t.Errorf("Result = %v, %v; want item 0", nb, err)
	}
}

// TestProcessEdgesMatchesProcessEdge verifies the batched public path is
// state-identical to the per-edge path, snapshot bytes included — the
// strongest equivalence the library can express (degree table, reservoirs,
// witnesses, and RNG streams all match).
func TestProcessEdgesMatchesProcessEdge(t *testing.T) {
	inst, err := workload.NewPlanted(workload.PlantedConfig{
		N: 3000, M: 12000, Heavy: 2, HeavyDeg: 200,
		NoiseEdges: 6000, Order: workload.Interleaved, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, len(inst.Updates))
	for i, u := range inst.Updates {
		edges[i] = u.Edge
	}

	cfg := Config{N: 3000, D: 200, Alpha: 3, Seed: 9}
	perEdge, err := NewInsertOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		perEdge.ProcessEdge(e.A, e.B)
	}

	batched, err := NewInsertOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven chunks, including empty and single-element ones.
	rng := xrand.New(1)
	for off := 0; off < len(edges); {
		chunk := rng.Intn(97)
		if off+chunk > len(edges) {
			chunk = len(edges) - off
		}
		batched.ProcessEdges(edges[off : off+chunk])
		off += chunk
	}

	var a, b bytes.Buffer
	if err := perEdge.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := batched.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("per-edge and batched ingest diverged: snapshots differ (%d vs %d bytes)",
			a.Len(), b.Len())
	}
	if !reflect.DeepEqual(perEdge.Results(), batched.Results()) {
		t.Fatal("per-edge and batched ingest produced different Results")
	}
}

// TestTurnstileEngine runs the sharded insertion-deletion engine on a
// small turnstile stream: noise edges are inserted and later deleted, so
// only the planted heavy items survive to the final graph.
func TestTurnstileEngine(t *testing.T) {
	const (
		n, m = 128, 1024
		d    = 16
	)
	heavy := []int64{3, 10}
	var ups []Update
	live := make(map[Edge]bool)
	for j := int64(0); j < d; j++ {
		for _, a := range heavy {
			ups = append(ups, Update{Edge: Edge{A: a, B: a*16 + j}, Op: stream.Insert})
			live[Edge{A: a, B: a*16 + j}] = true
		}
	}
	// Transient noise: inserted, then fully deleted.
	for a := int64(100); a < 110; a++ {
		for j := int64(0); j < 4; j++ {
			ups = append(ups, Update{Edge: Edge{A: a, B: j}, Op: stream.Insert})
		}
	}
	for a := int64(100); a < 110; a++ {
		for j := int64(0); j < 4; j++ {
			ups = append(ups, Update{Edge: Edge{A: a, B: j}, Op: stream.Delete})
		}
	}

	eng, err := NewTurnstileEngine(TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{N: n, M: m, D: d, Alpha: 2, Seed: 2, ScaleFactor: 0.05},
		Shards:          4,
		BatchSize:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.ProcessUpdates(ups[:len(ups)/2])
	for _, u := range ups[len(ups)/2:] {
		if u.Op == stream.Insert {
			eng.Insert(u.A, u.B)
		} else {
			eng.Delete(u.A, u.B)
		}
	}
	eng.Drain()

	nb, err := eng.Result()
	if err != nil {
		t.Fatalf("no result on a satisfied promise: %v", err)
	}
	if nb.A != heavy[0] && nb.A != heavy[1] {
		t.Fatalf("reported item %d is not a planted heavy item", nb.A)
	}
	if int64(nb.Size()) < eng.WitnessTarget() {
		t.Fatalf("%d witnesses, want >= %d", nb.Size(), eng.WitnessTarget())
	}
	for _, w := range nb.Witnesses {
		if !live[Edge{A: nb.A, B: w}] {
			t.Fatalf("witness (%d, %d) is not a live edge of the final graph", nb.A, w)
		}
	}
	if got := eng.Processed(); got != int64(len(ups)) {
		t.Fatalf("Processed = %d, want %d", got, len(ups))
	}
	if eng.SpaceWords() <= 0 {
		t.Fatal("SpaceWords must be positive")
	}
}

// TestTurnstileEngineDeterminism mirrors the insert-only determinism check.
func TestTurnstileEngineDeterminism(t *testing.T) {
	rng := xrand.New(6)
	var ups []Update
	for j := int64(0); j < 16; j++ {
		ups = append(ups, Update{Edge: Edge{A: 7, B: j}, Op: stream.Insert})
	}
	// Distinct B per update keeps every edge unique (simple-graph promise).
	for i := int64(0); i < 150; i++ {
		ups = append(ups, Update{Edge: Edge{A: rng.Int64n(64), B: 100 + i}, Op: stream.Insert})
	}

	run := func(batchSize int) string {
		eng, err := NewTurnstileEngine(TurnstileEngineConfig{
			TurnstileConfig: TurnstileConfig{N: 64, M: 256, D: 16, Alpha: 2, Seed: 4, ScaleFactor: 0.05},
			Shards:          4,
			BatchSize:       batchSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.ProcessUpdates(ups)
		eng.Drain()
		nb, err := eng.Result()
		return fmt.Sprintf("%v %v", nb, err)
	}

	base := run(0)
	for _, bs := range []int{1, 4096} {
		if got := run(bs); got != base {
			t.Fatalf("batchSize=%d diverged: %q vs %q", bs, got, base)
		}
	}
}
