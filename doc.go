// Package feww is a Go implementation of the algorithms from
//
//	Christian Konrad, "Frequent Elements with Witnesses in Data Streams",
//	PODS 2021 (arXiv:1911.08832).
//
// # The problem
//
// Classical frequent-elements (heavy hitters) algorithms report which items
// are frequent, but nothing about the occurrences themselves: a router can
// learn which destination IP is being hammered, but not when the packets
// arrived or from where.  FEwW(n, d) fixes that.  The input is a bipartite
// graph G = (A, B, E): A-vertices are items (|A| = n), B-vertices are the
// satellite data that arrives with each occurrence (timestamps, source IPs,
// users, followers), and each occurrence is an edge.  Given the promise
// that some item has degree at least d, the algorithm outputs an item
// together with at least ceil(d/alpha) of its incident edges — witnesses
// that prove the item's frequency — for an approximation factor alpha >= 1.
//
// # Algorithms
//
// InsertOnly implements the paper's Algorithm 2 for insertion-only streams:
// alpha parallel degree-triggered reservoir samplers, using space
// O(n log n + n^(1/alpha) d log^2 n) and succeeding with probability at
// least 1 - 1/n (Theorem 3.2), which is optimal up to polylog factors
// (Theorems 4.1 and 4.8).
//
// InsertDelete implements Algorithm 3 for insertion-deletion (turnstile)
// streams: a vertex-sampling strategy for dense inputs and an edge-sampling
// strategy for sparse inputs, both built on L0 samplers, using space
// ~O(d n / alpha^2) for alpha <= sqrt(n) (Theorem 5.4), again optimal up
// to polylog factors (Theorem 6.4).
//
// StarDetector and TurnstileStarDetector lift the two algorithms to the
// Star Detection problem on general graphs — find a vertex of
// (approximately) maximum degree together with its neighbourhood — via a
// (1+eps) guess ladder (Lemma 3.3, Corollaries 3.4 and 5.5).
//
// Engine, TurnstileEngine, StarEngine and WindowEngine share one base
// type over one generic sharded runtime (engine.go, runtime.go): the
// item universe is partitioned
// across P independent per-shard algorithm instances, each fed batches
// (ProcessEdges / ProcessUpdates / ProcessHalfEdges) by its own
// goroutine, so ingest scales with cores while each shard retains the
// single-instance guarantees on its slice of the universe; a fixed seed
// reproduces identical results regardless of scheduling or batch size.
// All engines are safe for concurrent producers and queriers.  Queries
// are barrier-free by default — each shard publishes an immutable result
// view after applying batches, so Best/Results/Usage read the latest
// published epoch without stalling ingest — while the Fresh variants
// quiesce the shards for strict read-your-writes consistency; see
// docs/ARCHITECTURE.md ("Query consistency") for the contract.  This is
// what the network service layer builds on.
//
// StarEngine is the star tier: Star Detection at sharded-engine speed.
// It partitions the Lemma 3.3 guess ladder by (star center, rung) — each
// shard holds the full (1+eps) ladder over its vertex slice — and
// consumes the bipartite double cover as directed half-edges, so star
// streams route and cluster exactly like flat FEwW streams.  Answers are
// rung-annotated (StarResult: center, neighbours, certifying guess), and
// the winning-rung merge order is associative, so a cluster of star
// members answers exactly like one full-universe StarEngine.
//
// WindowEngine is the sliding-window tier: frequent elements with
// witnesses over the last Window updates.  Each shard hosts a ladder of
// suffix InsertOnly instances started at bucket boundaries of the
// global stream (every accepted update is stamped with its arrival
// position engine-wide), queries serve the oldest instance still inside
// the window, and whole instances expire in O(1) as the stream
// advances — witnesses are never older than Window updates, and with
// Alpha = 1 the served set is exactly the items with >= D in-window
// occurrences.
//
// # Checkpointing
//
// Every layer snapshots and restores exactly.  InsertOnly and (via the
// engines) InsertDelete serialise their complete state — degree tables,
// reservoirs, witnesses, sketch cells and RNG streams — so a restored
// instance continues the very same random stream, and the snapshot bytes
// are precisely the "message" of the paper's communication protocols
// (see examples/partitioned).  Every engine's Snapshot / Restore pair
// (RestoreEngine, RestoreTurnstileEngine, RestoreStarEngine,
// RestoreWindowEngine) composes the per-shard snapshots into one
// FEWWENG1 container — written by the shared
// runtime, quiescing the queues first so nothing in flight is lost; see
// docs/ARCHITECTURE.md for the byte-level formats.
//
// # The service
//
// The feww/server package and cmd/fewwd expose any engine kind over HTTP
// (fewwd -algo insert|turnstile|star|window) — binary stream ingest,
// live witnessed-neighbourhood queries, stats and checkpoint/restore —
// and cmd/fewwload replays workload scenarios against it (including
// -scenario star and -scenario window with ground-truth verification).  One tier up, the
// feww/cluster package and cmd/fewwgate serve several fewwd nodes as one
// logical engine: contiguous ranges of the universe, scatter-gather
// queries with the engine's own merge rules (including the star tier's
// max-over-rungs), range rebalancing by shipping snapshots, and
// R-way replicated ranges with autonomous failover (fewwgate -replicas:
// a reconciler promotes, re-seeds and adopts spares with no operator in
// the loop) — the paper's state-as-message protocols operating across
// machines.  See docs/OPERATIONS.md for both runbooks.
//
// # Quick start
//
//	algo, err := feww.NewInsertOnly(feww.Config{N: 100000, D: 500, Alpha: 2})
//	if err != nil { ... }
//	for _, occ := range occurrences {
//	    algo.ProcessEdge(occ.Item, occ.Witness)
//	}
//	nb, err := algo.Result()
//	if err == nil {
//	    fmt.Println("frequent item", nb.A, "witnesses", nb.Witnesses)
//	}
//
// See examples/ for runnable programs covering the paper's three motivating
// applications (database logs, social networks, DoS detection),
// docs/ARCHITECTURE.md for the layer map and binary format
// specifications, and docs/OPERATIONS.md for running the service.
package feww
