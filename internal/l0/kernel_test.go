package l0

import (
	"fmt"
	"math/bits"
	"testing"

	"feww/internal/hashing"
	"feww/internal/xrand"
)

// The reference below is the L0 sampler written the direct way: one
// object per hash function and per cell, drawn from the RNG in
// construction order through hashing.NewPoly, and updated one cell at a
// time with the per-cell formula acc += delta * r^index (PowMod61 per
// cell).  Recovery peels a cloned copy of a level into a map.  The flat
// battery kernel must leave every cell word and every sample identical
// to it.

type refCell struct {
	count, sum int64
	r, acc     uint64
}

func (c *refCell) update(index uint64, delta int64) {
	c.count += delta
	c.sum += delta * int64(index)
	c.acc = hashing.AddMod61(c.acc, hashing.MulMod61(refModDelta(delta), hashing.PowMod61(c.r, index)))
}

func (c *refCell) recover() (uint64, int64, bool) {
	if c.count == 0 || c.sum%c.count != 0 || c.sum/c.count < 0 {
		return 0, 0, false
	}
	idx := uint64(c.sum / c.count)
	if c.acc != hashing.MulMod61(refModDelta(c.count), hashing.PowMod61(c.r, idx)) {
		return 0, 0, false
	}
	return idx, c.count, true
}

func refModDelta(d int64) uint64 {
	if d >= 0 {
		return uint64(d) % hashing.MersennePrime61
	}
	return hashing.SubMod61(0, uint64(-d)%hashing.MersennePrime61)
}

type refLevel struct {
	cells [][]refCell
	hash  []*hashing.Poly
}

type refSampler struct {
	universe         uint64
	lvlHash, minHash *hashing.Poly
	level            []refLevel
}

func newRefSampler(rng *xrand.RNG, universe uint64, p Params) *refSampler {
	s := &refSampler{
		universe: universe,
		lvlHash:  hashing.NewPoly(rng, 2),
		minHash:  hashing.NewPoly(rng, 2),
		level:    make([]refLevel, bits.Len64(universe)+1),
	}
	for l := range s.level {
		for r := 0; r < p.Rows; r++ {
			row := make([]refCell, 2*p.Sparsity)
			for c := range row {
				row[c].r = 1 + rng.Uint64n(hashing.MersennePrime61-1)
			}
			s.level[l].cells = append(s.level[l].cells, row)
			s.level[l].hash = append(s.level[l].hash, hashing.NewPoly(rng, 2))
		}
	}
	return s
}

func (s *refSampler) update(index uint64, delta int64) {
	h := s.lvlHash.Hash(index)
	deepest, threshold := 0, hashing.MersennePrime61/2
	for deepest < len(s.level)-1 && h < threshold {
		deepest++
		threshold /= 2
	}
	for l := 0; l <= deepest; l++ {
		lv := &s.level[l]
		for r, row := range lv.cells {
			row[lv.hash[r].HashRange(index, uint64(len(row)))].update(index, delta)
		}
	}
}

func (lv *refLevel) recover() map[uint64]int64 {
	scratch := make([][]refCell, len(lv.cells))
	for r := range scratch {
		scratch[r] = append([]refCell(nil), lv.cells[r]...)
	}
	out := make(map[uint64]int64)
	for {
		progressed := false
		for r := range scratch {
			for c := range scratch[r] {
				idx, cnt, ok := scratch[r][c].recover()
				if _, seen := out[idx]; !ok || seen {
					continue
				}
				out[idx] = cnt
				for r2, row := range scratch {
					row[lv.hash[r2].HashRange(idx, uint64(len(row)))].update(idx, -cnt)
				}
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

func (s *refSampler) sample() (uint64, int64, bool) {
	for l := len(s.level) - 1; l >= 0; l-- {
		best, bestHash, bestCount := uint64(0), uint64(1)<<63, int64(0)
		for idx, cnt := range s.level[l].recover() {
			if h := s.minHash.Hash(idx); cnt != 0 && h < bestHash {
				best, bestHash, bestCount = idx, h, cnt
			}
		}
		if bestHash != uint64(1)<<63 {
			return best, bestCount, true
		}
	}
	return 0, 0, false
}

// cells lists the reference's cells in the battery's snapshot order.
func (s *refSampler) cells() []refCell {
	var out []refCell
	for _, lv := range s.level {
		for _, row := range lv.cells {
			out = append(out, row...)
		}
	}
	return out
}

// checkAgainstRef compares every cell word and every sample of a battery
// with its references.
func checkAgainstRef(t *testing.T, b *Battery, refs []*refSampler) {
	t.Helper()
	per := b.cellsPer()
	for i, ref := range refs {
		for k, want := range ref.cells() {
			got := &b.cells[i*per+k]
			count, sum, acc := got.State()
			if count != want.count || sum != want.sum || acc != want.acc || got.fp.Point() != want.r {
				t.Fatalf("sampler %d cell %d = (%d, %d, r=%d, %d), reference (%d, %d, r=%d, %d)",
					i, k, count, sum, got.fp.Point(), acc, want.count, want.sum, want.r, want.acc)
			}
		}
		gi, gc, gok := b.Sample(i)
		wi, wc, wok := ref.sample()
		if gi != wi || gc != wc || gok != wok {
			t.Fatalf("sampler %d Sample = (%d, %d, %v), reference (%d, %d, %v)", i, gi, gc, gok, wi, wc, wok)
		}
	}
}

// TestBatteryMatchesScalarReference drives batteries and their scalar
// references with one random stream of signed updates, part of which is
// later cancelled to zero, over universes that are and are not powers of
// two and several sampler dimensions ({16, 5} exceeds the peel's stack
// copy).
func TestBatteryMatchesScalarReference(t *testing.T) {
	for _, universe := range []uint64{1, 2, 3, 100, 1 << 10, 12345, 1<<20 + 7} {
		for _, p := range []Params{{1, 1}, {4, 3}, {8, 5}, {16, 5}} {
			t.Run(fmt.Sprintf("U=%d/s=%d,rows=%d", universe, p.Sparsity, p.Rows), func(t *testing.T) {
				seed := universe*31 + uint64(p.Sparsity*7+p.Rows)
				const n = 6
				b := NewBattery(xrand.New(seed), n, universe, p)
				rng := xrand.New(seed)
				refs := make([]*refSampler, n)
				for i := range refs {
					refs[i] = newRefSampler(rng.Split(), universe, p)
				}
				apply := func(index uint64, delta int64) {
					b.Update(index, delta)
					for _, ref := range refs {
						ref.update(index, delta)
					}
				}
				stream := xrand.New(seed + 1)
				type upd struct {
					index uint64
					delta int64
				}
				var done []upd
				for step := 0; step < 300; step++ {
					u := upd{stream.Uint64n(universe), stream.Int64n(7) - 3}
					apply(u.index, u.delta)
					done = append(done, u)
					if step%100 == 99 {
						checkAgainstRef(t, b, refs)
					}
				}
				// Cancel all but a few updates: the survivors form a
				// sparse vector the samplers can recover.
				for _, u := range done[:len(done)-4] {
					apply(u.index, -u.delta)
				}
				checkAgainstRef(t, b, refs)
				// A battery restored cell by cell samples the same.
				restored := NewBattery(xrand.New(seed), n, universe, p)
				for k := 0; k < b.NumCells(); k++ {
					count, sum, acc := b.CellState(k)
					restored.SetCellState(k, count, sum, acc)
				}
				checkAgainstRef(t, restored, refs)
				for _, u := range done[len(done)-4:] {
					apply(u.index, -u.delta)
				}
				checkAgainstRef(t, b, refs)
				for k := range b.cells {
					if c := &b.cells[k]; !c.Zero() {
						t.Fatalf("cell %d not zero after every update cancelled: %+v", k, *c)
					}
				}
			})
		}
	}
}

// TestSamplerIsBatteryOfOne checks the single-sampler form, which draws
// from rng directly rather than from a split, against the reference.
func TestSamplerIsBatteryOfOne(t *testing.T) {
	const universe = 5000
	s := NewSampler(xrand.New(3), universe, DefaultParams)
	ref := newRefSampler(xrand.New(3), universe, DefaultParams)
	stream := xrand.New(4)
	for step := 0; step < 200; step++ {
		idx, delta := stream.Uint64n(universe), stream.Int64n(5)-2
		s.Update(idx, delta)
		ref.update(idx, delta)
	}
	checkAgainstRef(t, &s.b, []*refSampler{ref})
	if got, want := s.SpaceWords(), 4+len(ref.level)*DefaultParams.Rows*(4*2*DefaultParams.Sparsity+2); got != want {
		t.Fatalf("SpaceWords = %d, want %d", got, want)
	}
}
