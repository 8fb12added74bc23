// Sharded concurrent processing: the DoS-detection workload through the
// batched engine.
//
// examples/dosdetect feeds a router log to one single-threaded instance,
// one edge at a time.  This example replays the same kind of workload —
// several machines under simultaneous attack — through feww.Engine: the
// target-address universe is partitioned across shards, each shard runs an
// independent insertion-only instance on its own goroutine, and batches of
// packets move between them instead of single edges.  Results() merges the
// shard outputs, so every victim is reported no matter which shard owns it,
// and a fixed seed reproduces the exact same report on every run.
//
// Run with: go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"runtime"

	"feww"
	"feww/internal/workload"
)

func main() {
	cfg := workload.DoSConfig{
		Targets:    20000, // address space of potential victims
		Sources:    2000,  // distinct source IPs
		Window:     256,   // time slots in the log window
		Victims:    3,     // machines actually under attack
		AttackReqs: 3000,  // requests each victim receives
		Background: 80000, // benign traffic
		Seed:       11,
	}
	trace, err := workload.NewDoS(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router log: %d packets, %d potential targets\n", len(trace.Updates), cfg.Targets)
	fmt.Printf("ground truth victims: %v\n", trace.HeavyA)

	shards := runtime.GOMAXPROCS(0)
	if shards < 4 {
		shards = 4
	}
	eng, err := feww.NewEngine(feww.EngineConfig{
		Config: feww.Config{N: cfg.Targets, D: cfg.AttackReqs, Alpha: 2, Seed: 1},
		Shards: shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Printf("engine: %d shards, batch hand-off\n\n", eng.Shards())

	// Replay the log in batches, as a capture loop draining a ring buffer
	// would; A = target IP, B encodes (source IP, time slot).
	const batch = 4096
	buf := make([]feww.Edge, 0, batch)
	for _, u := range trace.Updates {
		buf = append(buf, feww.Edge{A: u.A, B: u.B})
		if len(buf) == batch {
			if err := eng.ProcessEdges(buf); err != nil {
				log.Fatal(err) // id outside [0, Targets), or engine closed
			}
			buf = buf[:0]
		}
	}
	if err := eng.ProcessEdges(buf); err != nil {
		log.Fatal(err)
	}

	// Queries read published shard views without stalling ingest; Drain
	// first so the report covers the complete log.
	if err := eng.Drain(); err != nil {
		log.Fatal(err)
	}
	results := eng.Results()
	if len(results) == 0 {
		log.Fatal("no attack detected")
	}
	for _, nb := range results {
		if err := trace.Verify(nb.A, nb.Witnesses); err != nil {
			log.Fatalf("reported witnesses are not genuine: %v", err)
		}
		src, slot := nb.Witnesses[0]/cfg.Window, nb.Witnesses[0]%cfg.Window
		fmt.Printf("ALERT: target %d under attack — %d distinct (source, time) witnesses, first: source IP #%d at slot %d\n",
			nb.A, nb.Size(), src, slot)
	}
	fmt.Printf("\n%d victims reported, %d edges ingested, %d words of state across %d shards\n",
		len(results), eng.Processed(), eng.SpaceWords(), eng.Shards())
}
