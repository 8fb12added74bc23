package feww

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"feww/internal/xrand"
)

// The golden snapshot tests pin the FEWWENG1 bytes of every engine kind:
// a small fixed-seed stream fed by one producer, then the SHA-256 of
// Snapshot's output.  The continuation tests only compare a run with
// itself, so they cannot notice a change to the container layout or to
// any shard's serialisation; these can.  A hash changes only if the wire
// format or the algorithms' deterministic behaviour changes — both are
// compatibility breaks for stored checkpoints and must be deliberate.

// goldenStream is a skewed stream over [0, n) x [0, m): every third
// element hits one of four heavy items, the rest are uniform noise.
func goldenStream(n, m int64, length int, seed uint64) []Edge {
	rng := xrand.New(seed)
	out := make([]Edge, length)
	for i := range out {
		a := rng.Int64n(n)
		if i%3 == 0 {
			a = rng.Int64n(4) * (n / 4)
		}
		out[i] = Edge{A: a, B: rng.Int64n(m)}
	}
	return out
}

// checkGolden snapshots a drained engine and compares the digest.
func checkGolden(t *testing.T, snap func(io.Writer) error, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := snap(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot (%d bytes) sha256 = %s, want %s", buf.Len(), got, want)
	}
}

func TestGoldenSnapshotEngine(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{N: 200, D: 12, Alpha: 2, Seed: 41},
		Shards: 3, BatchSize: 16, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, ed := range goldenStream(200, 1000, 3000, 1) {
		if err := eng.ProcessEdge(ed.A, ed.B); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, eng.Snapshot, goldenEngine)
}

func TestGoldenSnapshotTurnstile(t *testing.T) {
	eng, err := NewTurnstileEngine(TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{N: 64, M: 128, D: 8, Alpha: 2, Seed: 42, ScaleFactor: 0.01},
		Shards:          2, BatchSize: 8, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Insert every distinct edge once, then delete every other one: the
	// simple-graph turnstile promise holds by construction.
	seen := make(map[Edge]bool)
	var live []Edge
	for _, ed := range goldenStream(64, 128, 800, 2) {
		if !seen[ed] {
			seen[ed] = true
			live = append(live, ed)
			if err := eng.Insert(ed.A, ed.B); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < len(live); i += 2 {
		if err := eng.Delete(live[i].A, live[i].B); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, eng.Snapshot, goldenTurnstile)
}

func TestGoldenSnapshotStar(t *testing.T) {
	eng, err := NewStarEngine(StarEngineConfig{
		N: 120, Alpha: 2, Eps: 0.5, Seed: 43,
		Shards: 3, BatchSize: 16, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	seen := make(map[Edge]bool)
	for _, ed := range goldenStream(120, 120, 1500, 3) {
		u, v := min(ed.A, ed.B), max(ed.A, ed.B)
		if u == v || seen[Edge{A: u, B: v}] {
			continue
		}
		seen[Edge{A: u, B: v}] = true
		if err := eng.ProcessEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, eng.Snapshot, goldenStar)
}

func TestGoldenSnapshotWindow(t *testing.T) {
	eng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 200, D: 10, Alpha: 2, Seed: 44},
		Window: 600, Buckets: 4,
		Shards: 3, BatchSize: 16, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stream := goldenStream(200, 1000, 2500, 4)
	if err := eng.ProcessEdges(stream[:1000]); err != nil {
		t.Fatal(err)
	}
	for _, ed := range stream[1000:] {
		if err := eng.ProcessEdge(ed.A, ed.B); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, eng.Snapshot, goldenWindow)
}

// Pinned digests; see the comment at the top of the file before changing.
const (
	goldenEngine    = "2adbfd8426c4cab30886381d34ce16145936a85c05715d00565c7d3ced94369d"
	goldenTurnstile = "7d6aa34f5880ff0a5bd204ad2700ffc2ebf6f573c06e6325f209a35f2dcc5469"
	goldenStar      = "311f71d578db32834ae4866bbf33c3512b90b84f59ce1eba90665bdb51e04f4e"
	goldenWindow    = "3c0ba35288b3b1635898afcb67c1b6c69bc6db079a6f46ba2929637c502545ad"
)
