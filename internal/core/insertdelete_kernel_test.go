package core

import (
	"bytes"
	"math/bits"
	"testing"

	"feww/internal/l0"
	"feww/internal/stream"
	"feww/internal/xrand"
)

// kernelConfig is a turnstile instance at a given sampler scale.
func kernelConfig(scale float64) InsertDeleteConfig {
	return InsertDeleteConfig{N: 64, M: 512, D: 16, Alpha: 2, Seed: 1, ScaleFactor: scale}
}

// feedKernelStream plants a 40-edge star at a sampled vertex and 200
// noise edges, then deletes half the noise.
func feedKernelStream(algo *InsertDelete) {
	rng := xrand.New(9)
	a := algo.vertices[0]
	for _, b := range rng.Perm(int(algo.cfg.M))[:40] {
		algo.Update(a, int64(b), 1)
	}
	var noise [][2]int64
	for len(noise) < 200 {
		e := [2]int64{rng.Int64n(algo.cfg.N), rng.Int64n(algo.cfg.M)}
		if e[0] == a {
			continue
		}
		algo.Update(e[0], e[1], 1)
		noise = append(noise, e)
	}
	for _, e := range noise[:100] {
		algo.Update(e[0], e[1], -1)
	}
}

// TestTurnstileKernelAllocs pins the allocations of the turnstile
// algorithm's hot paths: Update and ApplyUpdates make none, View makes a
// constant number that does not grow with the sampler count, and
// construction makes a number proportional to the samplers, not to their
// cells (which outnumber them several hundred to one).
func TestTurnstileKernelAllocs(t *testing.T) {
	viewAllocs := make(map[float64]float64)
	for _, scale := range []float64{0.01, 0.03} {
		cfg := kernelConfig(scale)
		algo, err := NewInsertDelete(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedKernelStream(algo)

		a := algo.vertices[len(algo.vertices)-1]
		if allocs := testing.AllocsPerRun(50, func() {
			algo.Update(a, 7, 1)
			algo.Update(a, 7, -1)
		}); allocs != 0 {
			t.Errorf("scale %g: Update allocates %.2f times per pair of calls, want 0", scale, allocs)
		}
		batch := make([]stream.Update, 8)
		for i := range batch {
			batch[i] = stream.Ins(int64(i), int64(3*i))
		}
		undo := make([]stream.Update, len(batch))
		for i, u := range batch {
			undo[i] = stream.Del(u.A, u.B)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			algo.ApplyUpdates(batch)
			algo.ApplyUpdates(undo)
		}); allocs != 0 {
			t.Errorf("scale %g: ApplyUpdates allocates %.2f times per pair of batches, want 0", scale, allocs)
		}

		if _, err := algo.Result(); err != nil {
			t.Fatalf("scale %g: no result from the planted star: %v", scale, err)
		}
		viewAllocs[scale] = testing.AllocsPerRun(5, func() { _ = algo.View() })

		samplers := cfg.Sizing().TotalSamplers()
		cells := algo.edgeSamplers.NumCells()
		for _, batt := range algo.vertexBatts {
			cells += batt.NumCells()
		}
		construct := testing.AllocsPerRun(1, func() {
			if _, err := NewInsertDelete(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(2*samplers + 64); construct > limit {
			t.Errorf("scale %g: NewInsertDelete makes %.0f allocations for %d samplers (%d cells), want <= %.0f",
				scale, construct, samplers, cells, limit)
		}
	}
	if small, large := viewAllocs[0.01], viewAllocs[0.03]; small != large || small > 4 {
		t.Errorf("View allocates %.1f times at scale 0.01 and %.1f at 0.03, want the same constant <= 4", small, large)
	}
}

// TestInsertDeleteCachedSizes checks the construction-time SpaceWords and
// SnapshotSize against a walk of every battery's cells and against the
// bytes Snapshot writes, fresh and after a restore.
func TestInsertDeleteCachedSizes(t *testing.T) {
	for _, cfg := range []InsertDeleteConfig{
		kernelConfig(0.01),
		{N: 20, M: 100, D: 6, Alpha: 1, Seed: 3, ScaleFactor: 0.01, Sampler: l0.Params{Sparsity: 8, Rows: 5}},
		{N: 7, M: 1, D: 1, Alpha: 3, Seed: 4},
	} {
		algo, err := NewInsertDelete(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := cfg.Sampler.Rows
		if rows == 0 {
			rows = l0.DefaultParams.Rows
		}
		walk := len(algo.vertices) // one word per sampled vertex id
		walkBatt := func(b *l0.Battery, universe uint64) {
			walk += b.NumCells() * (&l0.OneSparse{}).SpaceWords()
			// Per sampler: level hash and min-hash, and one bucket
			// hash per level and row.
			walk += b.Len() * (2 + 2 + 2*(bits.Len64(universe)+1)*rows)
		}
		for _, b := range algo.vertexBatts {
			walkBatt(b, uint64(cfg.M))
		}
		walkBatt(algo.edgeSamplers, uint64(cfg.N)*uint64(cfg.M))
		if algo.SpaceWords() != walk {
			t.Errorf("%+v: SpaceWords = %d, walk = %d", cfg, algo.SpaceWords(), walk)
		}

		var buf bytes.Buffer
		if err := algo.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if algo.SnapshotSize() != buf.Len() {
			t.Errorf("%+v: SnapshotSize = %d, Snapshot wrote %d", cfg, algo.SnapshotSize(), buf.Len())
		}
		restored, err := RestoreInsertDelete(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if restored.SpaceWords() != walk || restored.SnapshotSize() != algo.SnapshotSize() {
			t.Errorf("%+v: restored sizes (%d words, %d bytes), want (%d, %d)",
				cfg, restored.SpaceWords(), restored.SnapshotSize(), walk, algo.SnapshotSize())
		}
	}
}
