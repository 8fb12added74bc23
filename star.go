package feww

import (
	"feww/internal/core"
)

// StarConfig parameterises star detection on a general n-vertex graph.
type StarConfig struct {
	// N is the number of graph vertices.
	N int64
	// Alpha is the FEwW approximation factor used per guess (>= 1).
	Alpha int
	// Eps > 0 controls the (1+Eps) guess ladder on the maximum degree; the
	// final guarantee is a ((1+Eps) * Alpha)-approximation (Lemma 3.3).
	// Zero means 0.5.
	Eps float64
	// Seed makes the run reproducible.
	Seed uint64
}

// ladderDefaults applies the star ladder's defaults, shared by the
// detectors and StarEngine: Eps 0.5 and a per-guess Alpha of 2.
func ladderDefaults(eps float64, alpha int) (float64, int) {
	if eps == 0 {
		eps = 0.5
	}
	if alpha == 0 {
		alpha = 2
	}
	return eps, alpha
}

// StarDetector solves Star Detection (paper Problem 2) on insertion-only
// general graph streams: it outputs a vertex together with at least
// Delta/((1+Eps)*Alpha) of its neighbours, where Delta is the maximum
// degree (Lemma 3.3, Corollary 3.4).  It is not safe for concurrent use —
// the sharded, concurrent, snapshot-capable form of the same algorithm is
// StarEngine (starengine.go), which fewwd serves over the network.
type StarDetector struct {
	inner *core.StarDetector
}

// NewStarDetector builds the (1+Eps) guess ladder, one insertion-only FEwW
// run per guess.
func NewStarDetector(cfg StarConfig) (*StarDetector, error) {
	eps, alpha := ladderDefaults(cfg.Eps, cfg.Alpha)
	seed := cfg.Seed
	factory := func(d int64) (core.Algorithm, error) {
		seed++
		return core.NewInsertOnly(core.InsertOnlyConfig{
			N: cfg.N, D: d, Alpha: alpha, Seed: seed,
		})
	}
	inner, err := core.NewStarDetector(cfg.N, eps, factory)
	if err != nil {
		return nil, err
	}
	return &StarDetector{inner: inner}, nil
}

// ProcessEdge feeds one undirected edge {u, v}.  The detector mirrors it
// into both orientations internally (the bipartite double cover of Lemma
// 3.3); feed each undirected edge exactly once.
func (sd *StarDetector) ProcessEdge(u, v int64) error { return sd.inner.ProcessEdge(u, v) }

// Result returns the largest star found: a vertex and a set of its genuine
// neighbours, or ErrNoWitness on an empty graph.
func (sd *StarDetector) Result() (Neighbourhood, error) { return sd.inner.Result() }

// SpaceWords reports the live state across the whole guess ladder.
func (sd *StarDetector) SpaceWords() int { return sd.inner.SpaceWords() }

// TurnstileStarConfig parameterises star detection on insertion-deletion
// general-graph streams.
type TurnstileStarConfig struct {
	// N is the number of graph vertices.
	N int64
	// Alpha is the FEwW approximation factor used per guess (>= 1).  Per
	// Corollary 5.5, alpha = sqrt(n) yields a semi-streaming algorithm;
	// smaller alpha buys a better ratio at polynomially more space.
	Alpha int
	// Eps > 0 controls the (1+Eps) guess ladder; zero means 0.5.
	Eps float64
	// Seed makes the run reproducible.
	Seed uint64
	// ScaleFactor scales the per-guess L0-sampler counts (see
	// TurnstileConfig.ScaleFactor).
	ScaleFactor float64
	// MaxSamplers caps the total sampler allocation across the whole
	// ladder (default 1 << 22).
	MaxSamplers int
}

// TurnstileStarDetector solves Star Detection on insertion-deletion
// streams (Corollary 5.5): each guess of the Lemma 3.3 ladder runs the
// insertion-deletion FEwW algorithm, so edges may be deleted again.  It is
// not safe for concurrent use.
type TurnstileStarDetector struct {
	inner *core.StarDetector
}

// NewTurnstileStarDetector builds the (1+Eps) guess ladder over
// InsertDelete instances.
func NewTurnstileStarDetector(cfg TurnstileStarConfig) (*TurnstileStarDetector, error) {
	eps, alpha := ladderDefaults(cfg.Eps, cfg.Alpha)
	maxSamplers := cfg.MaxSamplers
	if maxSamplers == 0 {
		maxSamplers = 1 << 22
	}
	seed := cfg.Seed
	factory := func(d int64) (core.Algorithm, error) {
		seed++
		return core.NewInsertDelete(core.InsertDeleteConfig{
			N: cfg.N, M: cfg.N, D: d, Alpha: alpha, Seed: seed,
			ScaleFactor: cfg.ScaleFactor, MaxSamplers: maxSamplers,
		})
	}
	inner, err := core.NewStarDetector(cfg.N, eps, factory)
	if err != nil {
		return nil, err
	}
	return &TurnstileStarDetector{inner: inner}, nil
}

// Insert feeds the insertion of the undirected edge {u, v}.
func (sd *TurnstileStarDetector) Insert(u, v int64) error { return sd.inner.ProcessUpdate(u, v, 1) }

// Delete feeds the deletion of the undirected edge {u, v}; the edge must
// currently exist.
func (sd *TurnstileStarDetector) Delete(u, v int64) error { return sd.inner.ProcessUpdate(u, v, -1) }

// Result returns the largest star of the final graph, or ErrNoWitness.
func (sd *TurnstileStarDetector) Result() (Neighbourhood, error) { return sd.inner.Result() }

// SpaceWords reports the live state across the whole guess ladder.
func (sd *TurnstileStarDetector) SpaceWords() int { return sd.inner.SpaceWords() }
