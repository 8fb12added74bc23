package l0

import (
	"feww/internal/hashing"
	"feww/internal/xrand"
)

// SSparse recovers a turnstile vector with at most s non-zero coordinates.
// Coordinates are hashed into 2s OneSparse cells per row, over rows
// independent rows; a coordinate is recovered if it lands alone in some
// cell of some row, which for an s-sparse vector happens for every
// coordinate with probability >= 1 - 2^-rows.
//
// Inside a sampler an SSparse is a view of one level's slice of the
// battery's flat storage; NewSSparse builds a standalone one.
type SSparse struct {
	width int
	hash  []hashing.Pair // row r's bucket hash
	cells []OneSparse    // len(hash) rows × width, row-major
}

// NewSSparse returns an s-sparse recoverer with the given number of rows.
// rows controls the failure probability (roughly 2^-rows per coordinate).
func NewSSparse(rng *xrand.RNG, s, rows int) *SSparse {
	if s < 1 || rows < 1 {
		panic("l0: NewSSparse with s < 1 or rows < 1")
	}
	ss := &SSparse{
		width: 2 * s,
		hash:  make([]hashing.Pair, rows),
		cells: make([]OneSparse, rows*2*s),
	}
	drawRows(rng, ss.hash, ss.cells, ss.width)
	return ss
}

// drawRows fills consecutive rows of width cells and their bucket hashes
// from rng in the construction order every snapshot relies on: a row's
// cells (one fingerprint point each), then its hash.
func drawRows(rng *xrand.RNG, hash []hashing.Pair, cells []OneSparse, width int) {
	for r := range hash {
		row := cells[r*width : (r+1)*width]
		for c := range row {
			row[c] = NewOneSparse(rng)
		}
		hash[r] = hashing.NewPair(rng)
	}
}

// cell returns the index in cells of index's cell in row r.
func (ss *SSparse) cell(r int, index uint64) int {
	return r*ss.width + int(ss.hash[r].HashRange(index, uint64(ss.width)))
}

// Update applies x[index] += delta.
func (ss *SSparse) Update(index uint64, delta int64) {
	for r := range ss.hash {
		ss.cells[ss.cell(r, index)].Update(index, delta)
	}
}

// Recover returns the set of recoverable non-zero coordinates with their
// counts; see peel.
func (ss *SSparse) Recover() map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, e := range ss.peel(nil) {
		out[e.index] = e.count
	}
	return out
}

// coord is one recovered coordinate.
type coord struct {
	index uint64
	count int64
}

// peelStackCells bounds the cells peel copies onto the stack; larger
// levels (rows × 2s above it) fall back to one heap copy.
const peelStackCells = 128

// peel appends the recoverable non-zero coordinates to out, using a
// peeling decoder: singleton cells are decoded, the recovered coordinate
// is subtracted from a scratch copy of every row (turning colliding cells
// into new singletons), and the process repeats until no cell decodes.
// For an s-sparse vector every coordinate is recovered with high
// probability; spurious decodes are filtered by the per-cell fingerprint,
// so returned entries are correct w.h.p.
func (ss *SSparse) peel(out []coord) []coord {
	var stack [peelStackCells]OneSparse
	scratch := stack[:0]
	if len(ss.cells) > len(stack) {
		scratch = make([]OneSparse, 0, len(ss.cells))
	}
	scratch = append(scratch, ss.cells...)
	for {
		progressed := false
		for c := range scratch {
			idx, cnt, ok := scratch[c].Recover()
			if !ok || recovered(out, idx) {
				continue // nothing here, or already peeled via another row
			}
			out = append(out, coord{idx, cnt})
			// Subtract the coordinate everywhere so collided cells can
			// become singletons in later passes.
			for r := range ss.hash {
				scratch[ss.cell(r, idx)].Update(idx, -cnt)
			}
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// recovered reports whether index is already in out.
func recovered(out []coord, index uint64) bool {
	for _, e := range out {
		if e.index == index {
			return true
		}
	}
	return false
}

// empty reports whether every cell count is zero; such a level decodes
// nothing, since a cell recovers only with a non-zero count.
func (ss *SSparse) empty() bool {
	for c := range ss.cells {
		if ss.cells[c].count != 0 {
			return false
		}
	}
	return true
}

// SpaceWords reports the words of state held by the recoverer.
func (ss *SSparse) SpaceWords() int {
	return len(ss.hash)*hashing.Pair{}.SpaceWords() + len(ss.cells)*(&OneSparse{}).SpaceWords()
}
