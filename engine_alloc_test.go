package feww

import "testing"

// TestSingleElementFeedAllocs pins the per-call allocations of the
// single-element feed paths (ProcessEdge, Insert, and the window engine's
// stamped ProcessEdge) at zero in steady state: a single element takes
// the same admission path as a batch, over a stack array, and the window
// stamp lands on the routed copy rather than on an escaping loop
// variable.  The batch size exceeds the measured calls, so no batch is
// handed to a worker mid-measurement: AllocsPerRun counts every
// goroutine's allocations, and a worker republishing its view is not
// the feed path.
func TestSingleElementFeedAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race runtime allocations are counted by AllocsPerRun")
	}
	eng, err := NewEngine(EngineConfig{Config: Config{N: 64, D: 1000, Alpha: 2, Seed: 1}, Shards: 4, BatchSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	teng, err := NewTurnstileEngine(TurnstileEngineConfig{
		TurnstileConfig: TurnstileConfig{N: 64, M: 1 << 20, D: 8, Alpha: 2, Seed: 1, ScaleFactor: 0.01},
		Shards:          4, BatchSize: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer teng.Close()
	weng, err := NewWindowEngine(WindowEngineConfig{
		Config: Config{N: 64, D: 1000, Alpha: 2, Seed: 1},
		Window: 1 << 40, Buckets: 1, Shards: 4, BatchSize: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer weng.Close()

	var i int64
	for name, feed := range map[string]func(){
		"Engine.ProcessEdge":       func() { i++; _ = eng.ProcessEdge(i%64, i) },
		"TurnstileEngine.Insert":   func() { i++; _ = teng.Insert(i%64, i%(1<<20)) },
		"WindowEngine.ProcessEdge": func() { i++; _ = weng.ProcessEdge(i%64, i) },
	} {
		if allocs := testing.AllocsPerRun(20000, feed); allocs > 0.01 {
			t.Errorf("%s allocates %.3f times per call, want 0", name, allocs)
		}
	}
}
