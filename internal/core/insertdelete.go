package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"feww/internal/l0"
	"feww/internal/stream"
	"feww/internal/xrand"
)

// InsertDeleteConfig parameterises the insertion-deletion algorithm.
type InsertDeleteConfig struct {
	N     int64 // |A|
	M     int64 // |B| (needed to define the edge universe [0, n*m))
	D     int64 // degree threshold d
	Alpha int   // approximation factor alpha >= 1
	Seed  uint64

	// ScaleFactor multiplies the theoretical sampler counts (the "10 ... ln"
	// terms of Algorithm 3).  1.0 (default when 0) is the paper's setting;
	// experiments use smaller values to keep the constant-factor-free
	// shape measurable on a laptop.  See docs/EXPERIMENTS.md §2 (substitutions).
	ScaleFactor float64

	// Sampler selects the internal L0 sampler dimensions; zero value uses
	// l0.DefaultParams.
	Sampler l0.Params

	// MaxSamplers caps the total number of L0 samplers the construction may
	// allocate (vertex samplers + edge samplers); 0 means the default of
	// 1 << 20.  Exceeding the cap is a configuration error: lower
	// ScaleFactor or the instance size.
	MaxSamplers int
}

func (c *InsertDeleteConfig) validate() error {
	if c.N < 1 || c.M < 1 {
		return fmt.Errorf("core: InsertDelete config: N = %d, M = %d, want >= 1", c.N, c.M)
	}
	if c.D < 1 {
		return fmt.Errorf("core: InsertDelete config: D = %d, want >= 1", c.D)
	}
	if c.Alpha < 1 {
		return fmt.Errorf("core: InsertDelete config: Alpha = %d, want >= 1", c.Alpha)
	}
	if c.ScaleFactor < 0 {
		return fmt.Errorf("core: InsertDelete config: ScaleFactor = %f, want >= 0", c.ScaleFactor)
	}
	return nil
}

// Sizing reports the derived dimensions of Algorithm 3 for a config:
// x = max(n/alpha, sqrt(n)), the vertex sample size 10*x*ln(n), the number
// of L0 samplers per sampled vertex 10*(d/alpha)*ln(n), and the number of
// edge samplers 10*(n*d/alpha)*(1/x + 1/alpha)*ln(n*m) — all multiplied by
// ScaleFactor and floored at 1.
//
// Battery sizes are additionally floored at the coupon-collector minimum
// ~2*d2*ln(d2): sampling with repetition needs about d2*ln(d2) draws to see
// d2 distinct witnesses, so scaling a battery below that can never succeed
// and would only distort the ablation curves.
type Sizing struct {
	X                 int64
	VertexSampleSize  int
	SamplersPerVertex int
	EdgeSamplers      int
}

// TotalSamplers returns the total L0 sampler count the sizing implies.
func (s Sizing) TotalSamplers() int {
	return s.VertexSampleSize*s.SamplersPerVertex + s.EdgeSamplers
}

// Sizing computes the derived dimensions without allocating anything, so
// callers can budget before construction.
func (c *InsertDeleteConfig) Sizing() Sizing {
	scale := c.ScaleFactor
	if scale == 0 {
		scale = 1
	}
	n := float64(c.N)
	alpha := float64(c.Alpha)
	x := math.Max(n/alpha, math.Sqrt(n))
	lnN := math.Log(math.Max(n, 2))
	lnNM := math.Log(math.Max(n*float64(c.M), 2))
	dOverAlpha := float64(c.D) / alpha

	ceil1 := func(v float64) int {
		iv := int(math.Ceil(v))
		if iv < 1 {
			return 1
		}
		return iv
	}
	vs := ceil1(10 * x * lnN * scale)
	if int64(vs) > c.N {
		vs = int(c.N)
	}
	d2 := float64(witnessTarget(c.D, c.Alpha))
	minBattery := ceil1(2 * d2 * math.Log(d2+2))
	spv := ceil1(10 * dOverAlpha * lnN * scale)
	if spv < minBattery {
		spv = minBattery
	}
	es := ceil1(10 * n * dOverAlpha * (1/x + 1/alpha) * lnNM * scale)
	if es < minBattery {
		es = minBattery
	}
	return Sizing{
		X:                 int64(math.Ceil(x)),
		VertexSampleSize:  vs,
		SamplersPerVertex: spv,
		EdgeSamplers:      es,
	}
}

// InsertDelete is Algorithm 3: the one-pass alpha-approximation algorithm
// for FEwW in insertion-deletion streams.  It combines two sampling
// strategies, both implemented with L0 samplers:
//
//   - Vertex sampling: a uniform random subset A' of the A-vertices is
//     fixed before the stream; each sampled vertex gets its own battery of
//     L0 samplers over its incident-edge substream.  This succeeds w.h.p.
//     when at least n/x vertices have degree >= d/alpha (Lemma 5.2).
//   - Edge sampling: a battery of L0 samplers over the whole edge universe.
//     This succeeds w.h.p. when at most n/x vertices have degree >= d/alpha
//     (Lemma 5.3).
//
// Together they give space ~O(d n / alpha^2) for alpha <= sqrt(n)
// (Theorem 5.4).
type InsertDelete struct {
	cfg    InsertDeleteConfig
	sizing Sizing
	d2     int64

	vertices     []int64       // the sampled A-vertex set A', ascending
	vertexBatts  []*l0.Battery // vertices[i]'s samplers, over [0, M)
	edgeSamplers *l0.Battery   // over the edge universe [0, N*M)
	updates      int64

	// spaceWords and snapshotBytes are fixed by the config; they are
	// computed once at construction instead of on every View.
	spaceWords    int
	snapshotBytes int
}

// NewInsertDelete constructs the algorithm, allocating all samplers up
// front (the sampled vertex set must be fixed before the stream starts).
func NewInsertDelete(cfg InsertDeleteConfig) (*InsertDelete, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizing := cfg.Sizing()
	maxSamplers := cfg.MaxSamplers
	if maxSamplers == 0 {
		maxSamplers = 1 << 20
	}
	if total := sizing.TotalSamplers(); total > maxSamplers {
		return nil, fmt.Errorf("core: InsertDelete would allocate %d L0 samplers (cap %d); lower ScaleFactor or the instance size", total, maxSamplers)
	}
	params := cfg.Sampler
	if params == (l0.Params{}) {
		params = l0.DefaultParams
	}

	rng := xrand.New(cfg.Seed)
	algo := &InsertDelete{
		cfg:    cfg,
		sizing: sizing,
		d2:     witnessTarget(cfg.D, cfg.Alpha),
	}

	// Fix A' := a uniform random subset of A of size VertexSampleSize
	// (Subset returns it ascending, the snapshot's battery order).
	sample := rng.Subset(int(cfg.N), sizing.VertexSampleSize)
	algo.vertices = make([]int64, len(sample))
	algo.vertexBatts = make([]*l0.Battery, len(sample))
	for i, v := range sample {
		algo.vertices[i] = int64(v)
		algo.vertexBatts[i] = l0.NewBattery(rng, sizing.SamplersPerVertex, uint64(cfg.M), params)
	}
	algo.edgeSamplers = l0.NewBattery(rng, sizing.EdgeSamplers, uint64(cfg.N)*uint64(cfg.M), params)

	algo.spaceWords = algo.edgeSamplers.SpaceWords()
	algo.snapshotBytes = snapHeaderBytes + 8 + 8 + snapCellBytes*algo.edgeSamplers.NumCells()
	for _, batt := range algo.vertexBatts {
		algo.spaceWords += 1 + batt.SpaceWords() // the sampled vertex id, then its samplers
		algo.snapshotBytes += 8 + snapCellBytes*batt.NumCells()
	}
	return algo, nil
}

// Update feeds one stream update: delta = +1 for an insertion of edge
// (a, b), delta = -1 for a deletion.  It runs the battery update kernel
// once for a's samplers, when a is sampled, and once for the edge
// samplers.
func (id *InsertDelete) Update(a, b int64, delta int) {
	if delta != 1 && delta != -1 {
		panic("core: InsertDelete.Update with delta not in {-1, +1}")
	}
	id.updates++
	if i, ok := slices.BinarySearch(id.vertices, a); ok {
		id.vertexBatts[i].Update(uint64(b), int64(delta))
	}
	id.edgeSamplers.Update(uint64(a)*uint64(id.cfg.M)+uint64(b), int64(delta))
}

// ApplyUpdates feeds a batch of stream updates in order.  It is equivalent
// to calling Update once per element; the batched form is the turnstile
// engine's shard hand-off unit.
func (id *InsertDelete) ApplyUpdates(ups []stream.Update) {
	for _, u := range ups {
		id.Update(u.A, u.B, int(u.Op))
	}
}

// ProcessUpdate implements the Algorithm interface used by StarDetector.
func (id *InsertDelete) ProcessUpdate(a, b int64, delta int) error {
	if delta != 1 && delta != -1 {
		return fmt.Errorf("core: InsertDelete.ProcessUpdate with delta %d", delta)
	}
	id.Update(a, b, delta)
	return nil
}

// Strategy identifies which of Algorithm 3's two sampling strategies
// produced a result.
type Strategy int

const (
	// StrategyNone means no strategy found a large enough neighbourhood.
	StrategyNone Strategy = iota
	// StrategyVertex is the dense-regime vertex-sampling strategy (Lemma 5.2).
	StrategyVertex
	// StrategyEdge is the sparse-regime edge-sampling strategy (Lemma 5.3).
	StrategyEdge
)

func (s Strategy) String() string {
	switch s {
	case StrategyVertex:
		return "vertex"
	case StrategyEdge:
		return "edge"
	default:
		return "none"
	}
}

// Result returns any stored neighbourhood of size >= ceil(d/alpha), per
// step 4 of Algorithm 3, or ErrNoWitness.
func (id *InsertDelete) Result() (Neighbourhood, error) {
	nb, _, err := id.ResultWithStrategy()
	return nb, err
}

// ResultWithStrategy is Result plus which strategy succeeded — used by
// experiment E6 to exhibit the dense/sparse crossover of Lemmas 5.2/5.3.
//
// Candidate vertices and witness sets are consulted in sorted order, not
// map order, so identical sampler state always yields the identical
// neighbourhood.  The engines rely on this: a published result epoch and
// a barrier read of the same state must agree byte for byte.
func (id *InsertDelete) ResultWithStrategy() (Neighbourhood, Strategy, error) {
	// Vertex strategy: each sampled vertex's battery yields up to
	// SamplersPerVertex (near-uniform, with repetition) incident edges.
	seen := make([]int64, 0, id.sizing.SamplersPerVertex)
	for i, a := range id.vertices {
		seen = seen[:0]
		batt := id.vertexBatts[i]
		for j := 0; j < batt.Len(); j++ {
			if b, cnt, ok := batt.Sample(j); ok && cnt > 0 {
				seen = append(seen, int64(b))
			}
		}
		slices.Sort(seen)
		if seen = slices.Compact(seen); int64(len(seen)) >= id.d2 {
			return Neighbourhood{A: a, Witnesses: slices.Clone(seen[:id.d2])}, StrategyVertex, nil
		}
	}
	// Edge strategy: group sampled edges by their A-endpoint.
	edges := make([][2]int64, 0, id.edgeSamplers.Len())
	for j := 0; j < id.edgeSamplers.Len(); j++ {
		key, cnt, ok := id.edgeSamplers.Sample(j)
		if !ok || cnt <= 0 {
			continue
		}
		edges = append(edges, [2]int64{int64(key / uint64(id.cfg.M)), int64(key % uint64(id.cfg.M))})
	}
	slices.SortFunc(edges, func(x, y [2]int64) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	// Sorted and deduplicated, each vertex's distinct witnesses form one
	// ascending run, so the first run of d2 or more yields the answer.
	edges = slices.Compact(edges)
	for lo := 0; lo < len(edges); {
		hi := lo + 1
		for hi < len(edges) && edges[hi][0] == edges[lo][0] {
			hi++
		}
		if int64(hi-lo) >= id.d2 {
			w := make([]int64, id.d2)
			for k := range w {
				w[k] = edges[lo+k][1]
			}
			return Neighbourhood{A: edges[lo][0], Witnesses: w}, StrategyEdge, nil
		}
		lo = hi
	}
	return Neighbourhood{}, StrategyNone, ErrNoWitness
}

// WitnessTarget returns d2 = ceil(d/alpha).
func (id *InsertDelete) WitnessTarget() int64 { return id.d2 }

// Config returns the configuration the instance was built (or restored)
// with; engine restore uses it to cross-check shard snapshots against
// their container.
func (id *InsertDelete) Config() InsertDeleteConfig { return id.cfg }

// SizingInfo returns the derived dimensions in use.
func (id *InsertDelete) SizingInfo() Sizing { return id.sizing }

// UpdatesProcessed returns the number of stream updates consumed.
func (id *InsertDelete) UpdatesProcessed() int64 { return id.updates }

// SpaceWords reports the live state across all L0 samplers: every
// sampler's hash coefficients and cell words, plus the sampled vertex ids.
func (id *InsertDelete) SpaceWords() int { return id.spaceWords }
