package l0

import (
	"math/bits"

	"feww/internal/hashing"
	"feww/internal/xrand"
)

// Params selects the internal dimensions of a Sampler.
type Params struct {
	Sparsity int // s of the per-level s-sparse recoverer (>= 1)
	Rows     int // rows of the per-level s-sparse recoverer (>= 1)
}

// DefaultParams gives a sampler with ~2^-6 per-query failure probability,
// adequate for the experiment regime; the paper's asymptotic setting
// corresponds to Sparsity, Rows = Θ(log(n d)).
var DefaultParams = Params{Sparsity: 4, Rows: 3}

// Battery is a set of independent L0 samplers over one coordinate
// universe [0, universe) that always receive the same updates — one
// sampled vertex's samplers, or the edge samplers, in the paper's
// insertion-deletion algorithm.  Each sampler returns, after an arbitrary
// sequence of turnstile updates, a near-uniform sample from the non-zero
// coordinates of the maintained vector, or ok = false if its sketch fails
// (probability delta, controlled by the sparsity and row parameters) or
// the vector is zero.
//
// The paper invokes these samplers with failure probability delta =
// 1/(n^10 d); here delta is set through the s and rows knobs chosen by
// Params.  See the package documentation for the storage layout and the
// update kernel.
type Battery struct {
	universe uint64
	n        int // samplers
	levels   int
	rows     int
	width    int // cells per row, 2s

	// hash holds hashesPer() hashes per sampler: the level hash, the
	// min-hash, then every level's row hashes, level-major.
	hash []hashing.Pair
	// cells holds levels × rows × width cells per sampler, level-major
	// then row-major — the snapshot order.
	cells []OneSparse
	// top holds each sampler's deepest level that an update or a
	// restored cell has reached.  Every cell of a deeper level is zero,
	// so Sample starts its walk at top.
	top []uint8
}

// hashesPer is the number of hashes per sampler.
func (b *Battery) hashesPer() int { return 2 + b.levels*b.rows }

// cellsPer is the number of cells per sampler.
func (b *Battery) cellsPer() int { return b.levels * b.rows * b.width }

// NewBattery returns n L0 samplers over [0, universe); sampler i draws
// its hashes and fingerprint points from the i-th rng.Split().
func NewBattery(rng *xrand.RNG, n int, universe uint64, p Params) *Battery {
	b := newBattery(n, universe, p)
	for i := 0; i < n; i++ {
		b.draw(i, rng.Split())
	}
	return &b
}

// newBattery allocates the storage of n samplers, undrawn.
func newBattery(n int, universe uint64, p Params) Battery {
	if universe == 0 {
		panic("l0: sampler with universe == 0")
	}
	if p.Sparsity < 1 || p.Rows < 1 || n < 0 {
		panic("l0: sampler with invalid params")
	}
	b := Battery{
		universe: universe,
		n:        n,
		levels:   bits.Len64(universe) + 1,
		rows:     p.Rows,
		width:    2 * p.Sparsity,
	}
	b.hash = make([]hashing.Pair, n*b.hashesPer())
	b.cells = make([]OneSparse, n*b.cellsPer())
	b.top = make([]uint8, n)
	return b
}

// draw fills sampler i from rng in construction order: the level hash,
// the min-hash, then each level's rows (see drawRows).
func (b *Battery) draw(i int, rng *xrand.RNG) {
	h := b.samplerHash(i)
	h[0] = hashing.NewPair(rng)
	h[1] = hashing.NewPair(rng)
	drawRows(rng, h[2:], b.cells[i*b.cellsPer():(i+1)*b.cellsPer()], b.width)
}

// samplerHash returns sampler i's hashes.
func (b *Battery) samplerHash(i int) []hashing.Pair {
	hp := b.hashesPer()
	return b.hash[i*hp : (i+1)*hp : (i+1)*hp]
}

// Len returns the number of samplers in the battery.
func (b *Battery) Len() int { return b.n }

// levelOf returns the deepest level that index participates in under
// level hash lh: index is sketched at levels 0..levelOf.  Level
// membership halves per level, so level ℓ holds an expected
// universe/2^ℓ coordinates.
func (b *Battery) levelOf(lh hashing.Pair, index uint64) int {
	h := lh.Hash(index)
	// Number of leading "all below threshold" halvings: count how many times
	// h < p/2^j.  Equivalent to the position of the highest set bit.
	lvl := 0
	threshold := hashing.MersennePrime61 / 2
	for lvl < b.levels-1 && h < threshold {
		lvl++
		threshold /= 2
	}
	return lvl
}

// kernelBlock is how many touched cells the update kernel locates before
// it raises their points and applies them; its two buffers live on the
// stack.
const kernelBlock = 128

// Update applies x[index] += delta to every sampler, for index < universe.
// Pass one locates every touched cell: each sampler's levels 0..levelOf,
// one cell per row.  Pass two loads the touched cells' fingerprint points
// in a tight loop, whose independent cache misses overlap, and raises
// them to index together.  Pass three adds the delta to each cell.  A
// block of located cells goes through passes two and three whenever the
// buffers fill.
func (b *Battery) Update(index uint64, delta int64) {
	if index >= b.universe {
		panic("l0: Update index out of universe")
	}
	var at [kernelBlock]int
	var pow [kernelBlock]uint64
	k, per := 0, b.cellsPer()
	for i := 0; i < b.n; i++ {
		h := b.samplerHash(i)
		lvl := b.levelOf(h[0], index)
		b.top[i] = max(b.top[i], uint8(lvl))
		rows := h[2 : 2+(lvl+1)*b.rows]
		base := i * per
		for lr, rh := range rows {
			at[k] = base + lr*b.width + int(rh.HashRange(index, uint64(b.width)))
			if k++; k == kernelBlock {
				b.apply(at[:], pow[:], index, delta)
				k = 0
			}
		}
	}
	b.apply(at[:k], pow[:], index, delta)
}

// apply runs passes two and three on the touched cells at; pow is scratch
// of at least len(at) words.
func (b *Battery) apply(at []int, pow []uint64, index uint64, delta int64) {
	pow = pow[:len(at)]
	for j, c := range at {
		pow[j] = b.cells[c].fp.Point()
	}
	hashing.PowMod61Batch(pow, index)
	for j, c := range at {
		b.cells[c].updatePow(index, delta, pow[j])
	}
}

// level returns sampler i's level lvl as an SSparse view of the storage.
func (b *Battery) level(i, lvl int) SSparse {
	rw := b.rows * b.width
	cells := b.cells[i*b.cellsPer()+lvl*rw:]
	h := b.samplerHash(i)[2+lvl*b.rows:]
	return SSparse{width: b.width, hash: h[:b.rows:b.rows], cells: cells[:rw:rw]}
}

// Sample returns a near-uniform non-zero coordinate of sampler i's vector
// together with its count.  ok is false if the vector is zero or recovery
// failed at every level.
//
// The query walks from the deepest level any update reached upward,
// skipping levels whose cell counts are all zero; the first level whose
// s-sparse recovery yields a non-empty set is used, and the coordinate with
// the minimum tie-break hash is returned — this is the standard recipe
// making the output distribution (1 ± o(1))-uniform.
func (b *Battery) Sample(i int) (index uint64, count int64, ok bool) {
	minHash := b.samplerHash(i)[1]
	for lvl := int(b.top[i]); lvl >= 0; lvl-- {
		ss := b.level(i, lvl)
		if ss.empty() {
			continue
		}
		var buf [16]coord
		rec := ss.peel(buf[:0])
		if len(rec) == 0 {
			continue
		}
		// Recovered counts are non-zero: a cell decodes only then.
		best, bestHash := rec[0], minHash.Hash(rec[0].index)
		for _, e := range rec[1:] {
			if mh := minHash.Hash(e.index); mh < bestHash {
				best, bestHash = e, mh
			}
		}
		return best.index, best.count, true
	}
	return 0, 0, false
}

// NumCells returns the number of cells over all samplers.
func (b *Battery) NumCells() int { return len(b.cells) }

// CellState returns the mutable words of cell k (see OneSparse.State).
// Cells are numbered sampler by sampler, each in the fixed level-major,
// then row-major order.  Snapshot and restore both walk this order, so
// the cells of two batteries built from the same RNG stream line up
// exactly.
func (b *Battery) CellState(k int) (count, sum int64, acc uint64) {
	return b.cells[k].State()
}

// SetCellState overwrites the mutable words of cell k; used by snapshot
// restore on a freshly constructed battery.
func (b *Battery) SetCellState(k int, count, sum int64, acc uint64) {
	b.cells[k].SetState(count, sum, acc)
	if count != 0 || sum != 0 || acc != 0 {
		i, lvl := k/b.cellsPer(), k%b.cellsPer()/(b.rows*b.width)
		b.top[i] = max(b.top[i], uint8(lvl))
	}
}

// SpaceWords reports the words of state held by the battery.
func (b *Battery) SpaceWords() int {
	return len(b.hash)*hashing.Pair{}.SpaceWords() + len(b.cells)*(&OneSparse{}).SpaceWords()
}

// Sampler is a single L0 sampler over [0, universe): a battery of one.
type Sampler struct {
	b Battery
}

// NewSampler returns an L0 sampler over [0, universe) drawn from rng.
func NewSampler(rng *xrand.RNG, universe uint64, p Params) *Sampler {
	s := &Sampler{b: newBattery(1, universe, p)}
	s.b.draw(0, rng)
	return s
}

// Update applies x[index] += delta for index < universe.
func (s *Sampler) Update(index uint64, delta int64) { s.b.Update(index, delta) }

// Sample returns a near-uniform non-zero coordinate and its count; see
// Battery.Sample.
func (s *Sampler) Sample() (index uint64, count int64, ok bool) { return s.b.Sample(0) }

// SpaceWords reports the words of state held by the sampler.
func (s *Sampler) SpaceWords() int { return s.b.SpaceWords() }
