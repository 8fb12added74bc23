package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"feww/internal/xrand"
)

// TestGoldenInsertDeleteShape pins the insertion-deletion algorithm at the
// per-shard shape of the turnstile benchmark workload (N=128, M=1024,
// d=32, alpha=2, ScaleFactor 0.01, seed 1): the SHA-256 of Snapshot and
// the Result neighbourhood after each of two phases of a fixed-seed
// insert/delete stream.  Phase one plants a star at an unsampled vertex
// under noise and churn, so the answer comes from the edge samplers;
// phase two plants stars at sampled vertices, so it comes from the vertex
// batteries.  Every cell word of every sampler feeds the digest, and the
// edge universe (2^17 keys, 19 levels) reaches deep levels, so a change to
// any RNG draw, hash, fingerprint or recovery step shows here.
func TestGoldenInsertDeleteShape(t *testing.T) {
	const (
		n, m       = 128, 1024
		wantPhase1 = "edge: vertex 3 [12 29 36 67 109 131 156 164 181 190 197 304 316 319 328 368]"
		wantPhase2 = "vertex: vertex 5 [41 61 79 97 109 148 156 180 216 217 387 454 501 518 529 602]"
		wantDigest = "ad51b02f01734378909b1b29582d66deb3ee91314db9a54073fcc1879158ad2c"
	)
	algo, err := NewInsertDelete(InsertDeleteConfig{N: n, M: m, D: 32, Alpha: 2, Seed: 1, ScaleFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	live := make(map[[2]int64]bool)
	insert := func(a, b int64) {
		if !live[[2]int64{a, b}] {
			live[[2]int64{a, b}] = true
			algo.Update(a, b, 1)
		}
	}
	remove := func(e [2]int64) {
		delete(live, e)
		algo.Update(e[0], e[1], -1)
	}
	star := func(a int64, deg int) [][2]int64 {
		var edges [][2]int64
		for _, b := range rng.Perm(m)[:deg] {
			insert(a, int64(b))
			edges = append(edges, [2]int64{a, int64(b)})
		}
		return edges
	}
	result := func() string {
		nb, strat, err := algo.ResultWithStrategy()
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%s: vertex %d %v", strat, nb.A, nb.Witnesses)
	}

	// Phase one: a star at vertex 3 (not in the sampled set for this
	// seed) among noise, most of which is then deleted.
	heavy3 := star(3, 40)
	var noise [][2]int64
	for len(noise) < 150 {
		a, b := rng.Int64n(n), rng.Int64n(m)
		if a == 3 || live[[2]int64{a, b}] {
			continue
		}
		insert(a, b)
		noise = append(noise, [2]int64{a, b})
	}
	for _, e := range noise[:100] {
		remove(e)
	}
	if got := result(); got != wantPhase1 {
		t.Errorf("phase one result = %q, want %q", got, wantPhase1)
	}

	// Phase two: stars at 5, 9 and 14 (sampled) and 20 (not), each
	// thinned by deletions, plus the rest of the noise and part of the
	// first star deleted.
	for _, a := range []int64{5, 9, 14, 20} {
		for _, e := range star(a, 36)[:6] {
			remove(e)
		}
	}
	for _, e := range noise[100:] {
		remove(e)
	}
	for _, e := range heavy3[:10] {
		remove(e)
	}
	if got := result(); got != wantPhase2 {
		t.Errorf("phase two result = %q, want %q", got, wantPhase2)
	}

	var buf bytes.Buffer
	if err := algo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantDigest {
		t.Fatalf("snapshot (%d bytes, %d updates) sha256 = %s, want %s",
			buf.Len(), algo.UpdatesProcessed(), got, wantDigest)
	}
}
