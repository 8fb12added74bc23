package feww

import (
	"sync"
	"testing"
)

// TestEngineConcurrentProducersAndQueries exercises the concurrent-use
// contract a network server relies on: several goroutines feeding batches
// while others query and snapshot, all racing against Close-free ingest.
// Run under -race this validates the lock discipline; the final count and
// per-shard totals validate that no edge was lost or double-counted.
func TestEngineConcurrentProducersAndQueries(t *testing.T) {
	const (
		producers = 4
		batches   = 50
		batchLen  = 100
	)
	eng, err := NewEngine(EngineConfig{
		Config: Config{N: 1000, D: 100, Alpha: 2, Seed: 5},
		Shards: 4, BatchSize: 32, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				batch := make([]Edge, batchLen)
				for j := range batch {
					batch[j] = Edge{A: int64((p*batches*batchLen + i*batchLen + j) % 1000), B: int64(j)}
				}
				eng.ProcessEdges(batch)
			}
		}(p)
	}
	// Concurrent queriers: results may reflect any prefix, but must never
	// race or crash.
	var qwg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; i < 20; i++ {
				eng.Best()
				eng.SpaceWords()
				eng.Processed()
				eng.QueueDepths()
				if eng.Closed() {
					t.Error("Closed() = true while the engine is live")
					return
				}
			}
		}()
	}
	wg.Wait()
	qwg.Wait()
	eng.Close()

	if got, want := eng.Processed(), int64(producers*batches*batchLen); got != want {
		t.Fatalf("Processed = %d, want %d", got, want)
	}
}

// fanEl is the element type of the white-box fanout tests: routed by A,
// stamped with its reserved stream position.
type fanEl struct{ A, Pos int64 }

// TestFanoutConcurrentProducersShardOrder pins the ordering half of the
// reserve-then-enqueue contract at the fanout layer, below any façade:
// under many concurrent producers mixing add and addBatch with ragged
// batch sizes, every shard must receive its sub-stream in strictly
// increasing stamped position order, and the positions across all shards
// must be exactly {0, ..., total-1} — the atomic reservation defines one
// global order and every shard consumes its slice of it.  Run under
// -race this also validates the lane lock discipline.
func TestFanoutConcurrentProducersShardOrder(t *testing.T) {
	const (
		shards    = 4
		producers = 8
		perProd   = 300
		total     = producers * perProd
	)
	recv := make([][]int64, shards)
	apply := make([]func([]fanEl), shards)
	for i := range apply {
		apply[i] = func(batch []fanEl) {
			for _, el := range batch {
				recv[i] = append(recv[i], el.Pos)
			}
		}
	}
	f := newFanout("test", 7, 2, func(e fanEl) int64 { return e.A }, apply, make([]func(), shards))
	f.stamp = func(el *fanEl, pos int64) { el.Pos = pos }

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; {
				n := 1 + (i+p)%13 // ragged batch sizes, never aligned to batchSize
				if i+n > perProd {
					n = perProd - i
				}
				batch := make([]fanEl, n)
				for j := range batch {
					batch[j] = fanEl{A: int64((p + i + j) % 31)}
				}
				var err error
				if n == 1 && p%2 == 0 {
					err = f.add(batch[0])
				} else {
					err = f.addBatch(batch)
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				i += n
			}
		}(p)
	}
	wg.Wait()
	f.close()
	// close waited out the workers, so recv is quiescent here.

	if got := f.count.Load(); got != total {
		t.Fatalf("count = %d, want %d", got, total)
	}
	if !f.isClosed() {
		t.Fatal("isClosed() = false after close")
	}
	if err := f.addBatch([]fanEl{{A: 1}}); err != ErrClosed {
		t.Fatalf("addBatch after close = %v, want ErrClosed", err)
	}
	seen := make([]bool, total)
	for i, positions := range recv {
		prev := int64(-1)
		for _, pos := range positions {
			if pos <= prev {
				t.Fatalf("shard %d received position %d after %d: sub-stream out of global order", i, pos, prev)
			}
			prev = pos
			if pos < 0 || pos >= total {
				t.Fatalf("shard %d received position %d outside [0, %d)", i, pos, total)
			}
			if seen[pos] {
				t.Fatalf("position %d delivered twice", pos)
			}
			seen[pos] = true
		}
	}
	for pos, ok := range seen {
		if !ok {
			t.Fatalf("position %d never delivered: reservation order has a hole", pos)
		}
	}
}

// TestQueueDepthsCountBufferedElements pins the telemetry contract: the
// per-shard depths count elements wherever they are parked — in the
// producer-side fill buffers as well as in queued batches — so a lightly
// loaded engine reports the edges actually buffered instead of zero, and
// a drained engine reports zero everywhere.
func TestQueueDepthsCountBufferedElements(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Config: Config{N: 100, D: 10, Alpha: 2, Seed: 3},
		Shards: 2, BatchSize: 64, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	edges := []Edge{{A: 0, B: 0}, {A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}, {A: 4, B: 4}}
	if err := eng.ProcessEdges(edges); err != nil {
		t.Fatal(err)
	}
	// BatchSize is 64, so all 5 edges are still in fill buffers: no batch
	// has been dispatched, yet the depths must see them.
	sum := 0
	for _, d := range eng.QueueDepths() {
		sum += d
	}
	if sum != len(edges) {
		t.Fatalf("QueueDepths sum = %d with %d edges parked in fill buffers, want %d", sum, len(edges), len(edges))
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, d := range eng.QueueDepths() {
		if d != 0 {
			t.Fatalf("QueueDepths[%d] = %d after Drain, want 0", i, d)
		}
	}
	if eng.Closed() {
		t.Fatal("Closed() = true before Close")
	}
	eng.Close()
	if !eng.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}
