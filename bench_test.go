package feww

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"feww/internal/core"
	"feww/internal/experiments"
	"feww/internal/workload"
	"feww/internal/xrand"
)

// One benchmark per experiment table (docs/EXPERIMENTS.md §3).  Each iteration
// regenerates the full artefact; the quick configuration is used so the
// whole suite stays benchable (use cmd/fewwbench -full for the
// docs/EXPERIMENTS.md §3 -full-sized runs).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, experiments.Config{Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkE1DegResSampling(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2InsertOnly(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3SpaceVsThreshold(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4SetDisjointness(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5BitVectorLearning(b *testing.B) {
	benchExperiment(b, "E5")
}
func BenchmarkE6InsertDelete(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7MatrixRowIndex(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8StarDetection(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9L0Sampler(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10Ablations(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkF1Figure1(b *testing.B)        { benchExperiment(b, "F1") }
func BenchmarkF2Figure2(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkF3Figure3(b *testing.B)        { benchExperiment(b, "F3") }

// Throughput benchmarks for the public API on realistic streams.

func BenchmarkInsertOnlyProcessEdge(b *testing.B) {
	for _, alpha := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			const n = 1 << 16
			algo, err := NewInsertOnly(Config{N: n, D: 1000, Alpha: alpha, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(2)
			zipf := xrand.NewZipf(rng, 1.2, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algo.ProcessEdge(int64(zipf.Next()), int64(i))
			}
		})
	}
}

// benchEdges pre-generates a Zipf-distributed edge stream shared by the
// ingest benchmarks, so the generator cost stays out of the timed region.
func benchEdges(n int64, count int) []Edge {
	rng := xrand.New(2)
	zipf := xrand.NewZipf(rng, 1.2, int(n))
	edges := make([]Edge, count)
	for i := range edges {
		edges[i] = Edge{A: int64(zipf.Next()), B: int64(i)}
	}
	return edges
}

// BenchmarkInsertOnlyProcessEdges measures the batched single-instance
// path — the same work as BenchmarkInsertOnlyProcessEdge with the
// per-edge dispatch amortised away.
func BenchmarkInsertOnlyProcessEdges(b *testing.B) {
	const n = 1 << 16
	edges := benchEdges(n, 1<<20)
	for _, alpha := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			algo, err := NewInsertOnly(Config{N: n, D: 1000, Alpha: alpha, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			const chunk = 4096
			off := 0
			for done := 0; done < b.N; {
				c := chunk
				if c > b.N-done {
					c = b.N - done
				}
				if off+c > len(edges) {
					off = 0
				}
				algo.ProcessEdges(edges[off : off+c])
				off += c
				done += c
			}
		})
	}
}

// BenchmarkEngineIngest measures sharded ingest throughput end-to-end
// (partitioning, batch hand-off, concurrent shard application, drain).
// Compare shards=1 against shards=4 / shards=GOMAXPROCS: on a multi-core
// machine the multi-shard variants should ingest at a multiple of the
// single-shard rate.
func BenchmarkEngineIngest(b *testing.B) {
	const n = 1 << 16
	edges := benchEdges(n, 1<<20)
	counts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	for _, p := range counts {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			eng, err := NewEngine(EngineConfig{
				Config: Config{N: n, D: 1000, Alpha: 2, Seed: 1},
				Shards: p,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			const chunk = 4096
			off := 0
			for done := 0; done < b.N; {
				c := chunk
				if c > b.N-done {
					c = b.N - done
				}
				if off+c > len(edges) {
					off = 0
				}
				eng.ProcessEdges(edges[off : off+c])
				off += c
				done += c
			}
			eng.Drain()
			b.StopTimer()
			eng.Close()
		})
	}
}

// BenchmarkEngineQueryUnderIngest measures the serving path this engine
// exists for: query latency while a producer feeds at full rate.  The
// published sub-benchmark reads the shards' atomic result epochs
// (barrier-free); the fresh sub-benchmark takes the strict barrier each
// query and therefore serialises with ingest and with other queriers.
// The ratio between the two is the cost of strict consistency — tracked
// over time next to BENCH_mixed.json (fewwbench -mode mixed).
func BenchmarkEngineQueryUnderIngest(b *testing.B) {
	const n = 1 << 16
	edges := benchEdges(n, 1<<20)
	for _, mode := range []string{"published", "fresh"} {
		b.Run(mode, func(b *testing.B) {
			eng, err := NewEngine(EngineConfig{
				Config: Config{N: n, D: 1000, Alpha: 2, Seed: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // full-rate ingest, looping the stream until stopped
				defer wg.Done()
				const chunk = 4096
				off := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					if off+chunk > len(edges) {
						off = 0
					}
					if err := eng.ProcessEdges(edges[off : off+chunk]); err != nil {
						b.Error(err)
						return
					}
					off += chunk
				}
			}()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if mode == "fresh" {
						eng.BestFresh()
					} else {
						eng.Best()
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
			eng.Close()
		})
	}
}

func BenchmarkInsertDeleteUpdate(b *testing.B) {
	for _, scale := range []float64{0.01, 0.05} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			const n, m = 256, 1024
			algo, err := NewInsertDelete(TurnstileConfig{
				N: n, M: m, D: 32, Alpha: 2, Seed: 1, ScaleFactor: scale,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				algo.Insert(rng.Int64n(n), rng.Int64n(m))
			}
		})
	}
}

// turnstileShardConfig is one shard of the turnstile benchmark workload:
// N=256 split over two shards, M=1024, d=32, alpha=2, ScaleFactor 0.01.
func turnstileShardConfig() TurnstileConfig {
	return TurnstileConfig{N: 128, M: 1024, D: 32, Alpha: 2, Seed: 1, ScaleFactor: 0.01}
}

// benchView keeps the compiler from discarding a measured View.
var benchView core.View

// BenchmarkInsertDeleteView measures a published-view rebuild of one
// turnstile shard holding a planted star among noise.  The star's vertex
// is not in the sampled set for this seed, so the rebuild samples every
// vertex battery before the edge samplers find the answer — the full
// recovery pass.
func BenchmarkInsertDeleteView(b *testing.B) {
	cfg := turnstileShardConfig()
	algo, err := NewInsertDelete(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	for _, bv := range rng.Perm(int(cfg.M))[:40] {
		algo.Insert(3, int64(bv))
	}
	for i := 0; i < 200; i++ {
		algo.Insert(rng.Int64n(cfg.N), rng.Int64n(cfg.M))
	}
	if _, strat, err := algo.inner.ResultWithStrategy(); err != nil || strat != core.StrategyEdge {
		b.Fatalf("result from strategy %v (%v), want the edge samplers", strat, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchView = algo.inner.View()
	}
}

// BenchmarkNewInsertDelete measures constructing one turnstile shard.
func BenchmarkNewInsertDelete(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewInsertDelete(turnstileShardConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStarDetectorSocial(b *testing.B) {
	ups := workload.SocialGraph(3, 4000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd, err := NewStarDetector(StarConfig{N: 4000, Alpha: 2, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range ups {
			if err := sd.ProcessEdge(u.A, u.B); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sd.Result(); err != nil {
			b.Fatal(err)
		}
	}
}
