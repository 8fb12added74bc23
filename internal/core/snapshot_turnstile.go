package core

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"feww/internal/l0"
)

// Snapshot / RestoreInsertDelete serialise the insertion-deletion
// algorithm.  Unlike the insertion-only snapshot, which must carry every
// sampled witness, the turnstile state is almost entirely *derived*: the
// sampled vertex set, every level/row hash function and every fingerprint
// evaluation point are deterministic functions of cfg.Seed, replayed by the
// constructor.  The snapshot therefore stores only the configuration plus
// the three mutable words of each 1-sparse cell (delta sum, index-weighted
// sum, fingerprint accumulator), and restore re-runs the constructor and
// overwrites cell state in the fixed order of l0.Battery.CellState.
//
// The format is versioned, little-endian, and deterministic: two snapshots
// of identical states are byte-identical (the vertex batteries are
// emitted in ascending vertex order).

var snapTurnstileMagic = [8]byte{'F', 'E', 'W', 'W', 'S', 'N', 'T', '1'}

const (
	snapHeaderBytes = 8 + 10*8 // magic + fixed header fields
	snapCellBytes   = 3 * 8    // count, sum, fingerprint accumulator
)

// Snapshot writes the algorithm's complete state to w.
func (id *InsertDelete) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := &encoder{w: bw}
	enc.bytes(snapTurnstileMagic[:])
	enc.i64(id.cfg.N)
	enc.i64(id.cfg.M)
	enc.i64(id.cfg.D)
	enc.i64(int64(id.cfg.Alpha))
	enc.u64(id.cfg.Seed)
	enc.u64(math.Float64bits(id.cfg.ScaleFactor))
	enc.i64(int64(id.cfg.Sampler.Sparsity))
	enc.i64(int64(id.cfg.Sampler.Rows))
	enc.i64(int64(id.cfg.MaxSamplers))
	enc.i64(id.updates)

	enc.i64(int64(len(id.vertices)))
	for i, a := range id.vertices {
		enc.i64(a)
		encodeCells(enc, id.vertexBatts[i])
	}
	enc.i64(int64(id.edgeSamplers.Len()))
	encodeCells(enc, id.edgeSamplers)
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// RestoreInsertDelete reads a snapshot written by (*InsertDelete).Snapshot
// and returns an algorithm that continues exactly where the snapshotted one
// stopped: the constructor replays every random choice from the stored
// seed, then the stored cell states overwrite the fresh cells.
func RestoreInsertDelete(r io.Reader) (*InsertDelete, error) {
	dec := &decoder{r: bufio.NewReader(r)}
	var magic [8]byte
	dec.bytes(magic[:])
	if dec.err == nil && magic != snapTurnstileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	cfg := InsertDeleteConfig{
		N:     dec.i64(),
		M:     dec.i64(),
		D:     dec.i64(),
		Alpha: int(dec.i64()),
		Seed:  dec.u64(),
	}
	cfg.ScaleFactor = math.Float64frombits(dec.u64())
	cfg.Sampler = l0.Params{Sparsity: int(dec.i64()), Rows: int(dec.i64())}
	cfg.MaxSamplers = int(dec.i64())
	updates := dec.i64()
	if dec.err != nil {
		return nil, dec.err
	}
	if (cfg.Sampler.Sparsity == 0) != (cfg.Sampler.Rows == 0) ||
		cfg.Sampler.Sparsity < 0 || cfg.Sampler.Rows < 0 {
		return nil, fmt.Errorf("%w: sampler params %+v", ErrBadSnapshot, cfg.Sampler)
	}
	if updates < 0 {
		return nil, fmt.Errorf("%w: %d updates", ErrBadSnapshot, updates)
	}
	// The constructor's only allocation guard compares the derived sizing
	// against cfg.MaxSamplers — which here comes from the same untrusted
	// header.  Bound both before allocating anything on the header's
	// behalf: a corrupt snapshot must fail as ErrBadSnapshot, not as an
	// OOM.  The cap is far above any real configuration (2^26 samplers is
	// already tens of GiB of cells) and negative sizing components catch
	// integer overflow in the derivation.
	const maxRestoreSamplers = 1 << 26
	if cfg.MaxSamplers < 0 || cfg.MaxSamplers > maxRestoreSamplers {
		return nil, fmt.Errorf("%w: MaxSamplers = %d", ErrBadSnapshot, cfg.MaxSamplers)
	}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	sizing := cfg.Sizing()
	if sizing.VertexSampleSize < 0 || sizing.SamplersPerVertex < 0 || sizing.EdgeSamplers < 0 ||
		sizing.TotalSamplers() < 0 || sizing.TotalSamplers() > maxRestoreSamplers {
		return nil, fmt.Errorf("%w: sizing %+v out of range", ErrBadSnapshot, sizing)
	}
	algo, err := NewInsertDelete(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	algo.updates = updates

	nVertex := dec.i64()
	if dec.err != nil {
		return nil, dec.err
	}
	if nVertex != int64(len(algo.vertices)) {
		return nil, fmt.Errorf("%w: %d vertex samplers, config derives %d",
			ErrBadSnapshot, nVertex, len(algo.vertices))
	}
	for i, want := range algo.vertices {
		a := dec.i64()
		if dec.err != nil {
			return nil, dec.err
		}
		if a != want {
			return nil, fmt.Errorf("%w: sampled vertex %d, seed derives %d", ErrBadSnapshot, a, want)
		}
		decodeCells(dec, algo.vertexBatts[i])
	}
	nEdge := dec.i64()
	if dec.err != nil {
		return nil, dec.err
	}
	if nEdge != int64(algo.edgeSamplers.Len()) {
		return nil, fmt.Errorf("%w: %d edge samplers, config derives %d",
			ErrBadSnapshot, nEdge, algo.edgeSamplers.Len())
	}
	decodeCells(dec, algo.edgeSamplers)
	if dec.err != nil {
		return nil, dec.err
	}
	return algo, nil
}

// SnapshotSize returns the exact byte length Snapshot would write.  It
// is fixed by the config, so NewInsertDelete computes it once.
func (id *InsertDelete) SnapshotSize() int { return id.snapshotBytes }

func encodeCells(enc *encoder, b *l0.Battery) {
	for k := 0; k < b.NumCells(); k++ {
		count, sum, acc := b.CellState(k)
		enc.i64(count)
		enc.i64(sum)
		enc.u64(acc)
	}
}

func decodeCells(dec *decoder, b *l0.Battery) {
	for k := 0; k < b.NumCells(); k++ {
		count := dec.i64()
		sum := dec.i64()
		acc := dec.u64()
		if dec.err != nil {
			return
		}
		b.SetCellState(k, count, sum, acc)
	}
}
