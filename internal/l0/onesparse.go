// Package l0 implements L0 sampling for turnstile (insertion-deletion)
// streams in the style of Jowhari, Sağlam and Tardos [26], the substrate of
// the paper's insertion-deletion algorithm (§5): an L0 sampler processes a
// stream of coordinate updates to a vector x and, at query time, outputs a
// (near-)uniform sample from the non-zero coordinates of x.
//
// The construction is the classic three-layer one:
//
//  1. OneSparse — exact recovery of a vector with at most one non-zero
//     coordinate via (count, index-weighted sum, polynomial fingerprint);
//  2. SSparse — recovery of vectors with at most s non-zero coordinates by
//     hashing coordinates into 2s OneSparse cells per row across rows
//     independent rows, decoded by peeling;
//  3. Sampler — geometric subsampling levels; level ℓ sketches the
//     coordinates whose pairwise-independent hash falls below 2^61/2^ℓ, and
//     the query returns the minimum-hash coordinate of the deepest
//     recoverable level.
//
// # Storage
//
// The layers are a description, not an object graph.  A Battery holds
// any number of samplers over one universe in two flat, pointer-free
// slices: the hashes (per sampler: the level hash, the min-hash, then
// one bucket hash per level and row, each a two-word hashing.Pair) and
// the cells (per sampler: levels × rows × 2s OneSparse values of four
// words — count, sum, fingerprint point r and accumulator — level-major,
// then row-major).  Both are filled in the order the construction RNG draws
// them, so a battery built from a seed is the same battery every time,
// and snapshots carry only the cells' mutable words.  An SSparse is a
// view of one level's rows; a Sampler is a battery of one.
//
// # Update kernel
//
// Battery.Update applies one coordinate update to every sampler in three
// passes: it locates every touched cell (each sampler's levels up to the
// coordinate's depth, one cell per row), loads the touched cells'
// fingerprint points and raises them to the coordinate index together
// with hashing.PowMod61Batch, whose interleaved square-and-multiply
// chains overlap instead of waiting on each other, and then applies the
// deltas.  Every cell receives exactly the words the one-cell formula
// (OneSparse.Update) would give it.
//
// # Recovery
//
// Sampling walks a sampler's levels upward from the deepest one an update
// has reached (each sampler records it; every deeper cell is zero), skips
// levels whose cell counts are all zero, and peels the first other level
// on a stack copy of its cells; it allocates nothing for the default
// parameters.
package l0

import (
	"feww/internal/hashing"
	"feww/internal/xrand"
)

// OneSparse exactly recovers a turnstile vector that has at most one
// non-zero coordinate, and detects (with high probability) when it has
// more.  Coordinates are uint64 indices; counts are signed.  It is a plain
// four-word value: batteries store cells inline, and copying a cell copies
// its state.
type OneSparse struct {
	count int64 // sum of deltas (ℓ in the literature)
	sum   int64 // sum of delta * index — safe for index*|count| < 2^63
	fp    hashing.Fingerprint
}

// NewOneSparse returns an empty 1-sparse recoverer.
func NewOneSparse(rng *xrand.RNG) OneSparse {
	return OneSparse{fp: hashing.NewFingerprint(rng)}
}

// Update applies x[index] += delta.
func (o *OneSparse) Update(index uint64, delta int64) {
	o.updatePow(index, delta, hashing.PowMod61(o.fp.Point(), index))
}

// updatePow is Update with pow = r^index mod p already computed, r being
// the fingerprint's evaluation point; the battery kernel's apply pass.
func (o *OneSparse) updatePow(index uint64, delta int64, pow uint64) {
	o.count += delta
	o.sum += delta * int64(index)
	o.fp.UpdatePow(pow, delta)
}

// Recover attempts to decode the sketched vector as a single non-zero
// coordinate.  ok is true only when the vector is exactly {index: count}
// (up to the fingerprint's false-positive probability <= U/p).
func (o *OneSparse) Recover() (index uint64, count int64, ok bool) {
	if o.count == 0 {
		return 0, 0, false
	}
	if o.sum%o.count != 0 {
		return 0, 0, false
	}
	idx := o.sum / o.count
	if idx < 0 {
		return 0, 0, false
	}
	if !o.fp.Matches(uint64(idx), o.count) {
		return 0, 0, false
	}
	return uint64(idx), o.count, true
}

// Zero reports whether the sketch is consistent with the all-zero vector.
func (o *OneSparse) Zero() bool {
	return o.count == 0 && o.sum == 0 && o.fp.Zero()
}

// State returns the cell's mutable state: the delta sum, the index-weighted
// sum, and the fingerprint accumulator.  The fingerprint's evaluation point
// is not part of the state — it is derived from the construction RNG, so a
// checkpoint needs only these three words per cell.
func (o *OneSparse) State() (count, sum int64, acc uint64) {
	return o.count, o.sum, o.fp.Acc()
}

// SetState overwrites the cell's mutable state; used by snapshot restore on
// a freshly constructed (hence hash-compatible) cell.
func (o *OneSparse) SetState(count, sum int64, acc uint64) {
	o.count, o.sum = count, sum
	o.fp.SetAcc(acc)
}

// SpaceWords reports the words of state held by the recoverer.
func (o *OneSparse) SpaceWords() int { return 2 + o.fp.SpaceWords() }
