package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"feww"
	"feww/cluster"
	"feww/internal/core"
	"feww/internal/stream"
	"feww/server"
)

// The layer ladder replays a prefix of the workload's own stream through
// each layer's public functions, innermost first, on the same input:
//
//	stream   FEWW encode and frame decode
//	core     one algorithm instance over the node's whole universe
//	runtime  the sharded engine, at 1 shard and at the workload's shards
//	server   the fewwd handler in memory, then over loopback HTTP
//	cluster  a three-member gateway, against its members fed directly
//
// A layer's self time is its time minus the time of the layer inside it
// on the same input.  For the window kind the single-node rungs replay
// member 0's share of the stream, as the gateway forwards it.

// layerResult is the ladder's per-layer metric set.
type layerResult struct {
	metrics   map[string]metric
	attempted int64
	err       error // the first failed step; the ladder carries on past it

	bestPubNs, bestFreshUs float64 // runtime query timings, for the fresh split
}

func (lr *layerResult) set(name string, v float64, unit string) { lr.metrics[name] = metric{v, unit} }

// step counts one ladder operation and keeps the first failure.
func (lr *layerResult) step(what string, err error) bool {
	lr.attempted++
	if err != nil && lr.err == nil {
		lr.err = fmt.Errorf("%s: %w", what, err)
	}
	return err == nil
}

// nodeInput is the stream prefix one node receives, decoded and encoded.
type nodeInput struct {
	ups    []stream.Update
	edges  []feww.Edge // ups as edges (insert and window kinds)
	bodies [][]byte    // /ingest bodies of the spec's size
	n      int64       // node universe
}

func ladderInput(sp spec, ws *workStream) (*nodeInput, error) {
	total := min(sp.ladderUpdates, ws.total)
	in := &nodeInput{n: sp.n}
	for t := 0; t < total; t++ {
		u := ws.update(t)
		if sp.kind == kindWindow {
			if t%sp.members != 0 {
				continue // member 0's share: range 0, ids unchanged
			}
		}
		in.ups = append(in.ups, u)
	}
	if sp.kind != kindTurnstile {
		in.edges = make([]feww.Edge, len(in.ups))
		for i, u := range in.ups {
			in.edges[i] = u.Edge
		}
	}
	for lo := 0; lo < len(in.ups); lo += sp.bodyUpdates {
		var buf bytes.Buffer
		if err := stream.WriteFile(&buf, in.n, sp.m, in.ups[lo:min(lo+sp.bodyUpdates, len(in.ups))]); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, buf.Bytes())
	}
	return in, nil
}

// ladder runs every rung and returns the per-layer metrics.  Only an
// input that cannot be built is an error; a failed step is kept in err.
func ladder(sp spec, ws *workStream, seed uint64) (*layerResult, error) {
	lr := &layerResult{metrics: map[string]metric{}}
	in, err := ladderInput(sp, ws)
	if err != nil {
		return nil, err
	}
	perUpdate := func(d time.Duration) float64 { return float64(d) / float64(len(in.ups)) }
	shards := sp.shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	ladderStream(lr, sp, in)
	coreNs := ladderCore(lr, sp, in, seed)
	oneNs := ladderRuntime(lr, sp, in, seed, 1, false)
	pNs := ladderRuntime(lr, sp, in, seed, shards, true)
	lr.set("runtime.updates_per_s_1shard", 1e9/oneNs, "1/s")
	lr.set("runtime.updates_per_s_pshard", 1e9/pNs, "1/s")
	lr.set("runtime.overhead_ratio", oneNs/coreNs, "ratio")
	ladderRuntimeQueries(lr, sp, in, seed, shards)

	// server, in memory: the handler alone, no sockets.
	if be, err := newBackend(sp, in.n, shards, seed); lr.step("handler backend", err) {
		h := server.New(be, server.Config{}).Handler()
		start := time.Now()
		for _, body := range in.bodies {
			lr.step("handler /ingest", serve(h, http.MethodPost, "/ingest", body))
		}
		lr.step("handler barrier", serve(h, http.MethodGet, "/stats?fresh=1", nil))
		handlerNs := perUpdate(time.Since(start))
		lr.set("server.handler_ingest_ns_per_update", handlerNs, "ns")
		lr.set("server.handler_self_ns_per_update", handlerNs-pNs, "ns")
		lr.set("server.handler_best_pub_us", timeMedian(lr, 200, func() error { return serve(h, http.MethodGet, "/best", nil) }), "us")
		lr.set("server.handler_best_fresh_us", timeMedian(lr, queryReps(sp), func() error { return serve(h, http.MethodGet, "/best?fresh=1", nil) }), "us")

		// server over loopback HTTP: the same handler behind a listener.
		if be2, err := newBackend(sp, in.n, shards, seed); lr.step("http backend", err) {
			nd := startNode(be2)
			c := dial(nd.srv.URL)
			start := time.Now()
			for _, body := range in.bodies {
				_, err := c.IngestStream(bytes.NewReader(body))
				lr.step("http /ingest", err)
			}
			_, err := c.StatsFresh()
			lr.step("http barrier", err)
			httpNs := perUpdate(time.Since(start))
			lr.set("server.http_ingest_ns_per_update", httpNs, "ns")
			lr.set("server.transport_self_ns_per_update", httpNs-handlerNs, "ns")
			lr.set("server.http_best_pub_us", timeMedian(lr, 200, func() error { _, err := c.Best(); return err }), "us")
			c.close()
			nd.srv.Close()
			be2.Close()
		}
		be.Close()
	}

	ladderCluster(lr, sp, ws, seed)
	return lr, nil
}

// queryReps is how many times a fresh query is timed: fewer where each
// one runs a full L0 recovery.
func queryReps(sp spec) int {
	if sp.kind == kindTurnstile {
		return 5
	}
	return 100
}

// serve runs one request through a handler in memory.
func serve(h http.Handler, method, path string, body []byte) error {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// timeMedian times fn reps times and returns the median, in us.
func timeMedian(lr *layerResult, reps int, fn func() error) float64 {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		err := fn()
		ds = append(ds, float64(time.Since(start))/float64(time.Microsecond))
		lr.step("timed query", err)
	}
	return median(ds)
}

// ladderStream times the FEWW codec on the node's bodies.
func ladderStream(lr *layerResult, sp spec, in *nodeInput) {
	n := float64(len(in.ups))
	var wire bytes.Buffer
	fw := stream.NewFrameWriter(&wire)
	reps, start := 0, time.Now()
	for reps == 0 || time.Since(start) < 200*time.Millisecond {
		wire.Reset()
		for lo := 0; lo < len(in.ups); lo += sp.bodyUpdates {
			lr.step("encode", fw.WriteFrame(in.n, sp.m, in.ups[lo:min(lo+sp.bodyUpdates, len(in.ups))]))
		}
		reps++
	}
	lr.set("stream.encode_ns_per_update", float64(time.Since(start))/float64(reps)/n, "ns")
	lr.set("stream.bytes_per_update", float64(wire.Len())/n, "bytes")

	framed := wire.Bytes()
	reps, start = 0, time.Now()
	for reps == 0 || time.Since(start) < 200*time.Millisecond {
		sc, err := stream.NewFrameScanner(bytes.NewReader(framed))
		if !lr.step("decode", err) {
			return
		}
		got := 0
		for sc.Scan() {
			got++
		}
		if err := sc.Err(); err == nil && got != len(in.ups) {
			lr.step("decode", fmt.Errorf("decoded %d of %d updates", got, len(in.ups)))
		} else {
			lr.step("decode", err)
		}
		reps++
	}
	lr.set("stream.decode_ns_per_update", float64(time.Since(start))/float64(reps)/n, "ns")
}

// coreInstance is one algorithm instance over the node's universe.
type coreInstance struct {
	apply      func(lo, hi int)
	view, best func()
	space      func() (words, bytes int)
}

func newCore(sp spec, in *nodeInput, seed uint64) (*coreInstance, error) {
	switch sp.kind {
	case kindInsert:
		c, err := core.NewInsertOnly(core.InsertOnlyConfig{N: in.n, D: sp.d, Alpha: sp.alpha, Seed: seed})
		if err != nil {
			return nil, err
		}
		return &coreInstance{
			apply: func(lo, hi int) { c.ProcessEdges(in.edges[lo:hi]) },
			view:  func() { c.View() },
			best:  func() { c.QueryBest() },
			space: func() (int, int) { return c.SpaceWords(), c.SnapshotSize() },
		}, nil
	case kindTurnstile:
		c, err := core.NewInsertDelete(core.InsertDeleteConfig{N: in.n, M: sp.m, D: sp.d, Alpha: sp.alpha, Seed: seed, ScaleFactor: sp.scale})
		if err != nil {
			return nil, err
		}
		return &coreInstance{
			apply: func(lo, hi int) { c.ApplyUpdates(in.ups[lo:hi]) },
			view:  func() { c.View() },
			best:  func() { c.QueryBest() },
			space: func() (int, int) { return c.SpaceWords(), c.SnapshotSize() },
		}, nil
	default:
		var clock int64
		c, err := core.NewWindowShard(core.WindowShardConfig{
			N: in.n, D: sp.d, Alpha: sp.alpha, Window: sp.window, Buckets: sp.buckets, Seed: seed,
		}, func() int64 { return clock })
		if err != nil {
			return nil, err
		}
		batch := make([]core.WindowUpdate, 0, 512)
		return &coreInstance{
			apply: func(lo, hi int) {
				batch = batch[:0]
				for i := lo; i < hi; i++ {
					batch = append(batch, core.WindowUpdate{Edge: in.edges[i], Pos: int64(i)})
				}
				clock = int64(hi)
				c.Apply(batch)
			},
			view:  func() { c.View() },
			best:  func() { c.QueryBest() },
			space: func() (int, int) { return c.SpaceWords(), c.SnapshotSize() },
		}, nil
	}
}

// ladderCore times the algorithm alone and returns its ns per update.
func ladderCore(lr *layerResult, sp spec, in *nodeInput, seed uint64) float64 {
	var (
		c     *coreInstance
		ctors []float64
	)
	for start := time.Now(); len(ctors) < 3 && (len(ctors) == 0 || time.Since(start) < time.Second); {
		s := time.Now()
		inst, err := newCore(sp, in, seed)
		if !lr.step("core construct", err) {
			return 1
		}
		ctors = append(ctors, float64(time.Since(s))/float64(time.Millisecond))
		c = inst
	}
	lr.set("core.construct_ms", median(ctors), "ms")
	const batch = 512 // the runtime's batch size
	start := time.Now()
	for lo := 0; lo < len(in.ups); lo += batch {
		c.apply(lo, min(lo+batch, len(in.ups)))
	}
	ns := float64(time.Since(start)) / float64(len(in.ups))
	lr.set("core.apply_ns_per_update", ns, "ns")
	reps := queryReps(sp)
	lr.set("core.view_build_us", timeMedian(lr, reps, func() error { c.view(); return nil }), "us")
	lr.set("core.query_best_us", timeMedian(lr, reps, func() error { c.best(); return nil }), "us")
	words, size := c.space()
	lr.set("core.space_words", float64(words), "words")
	lr.set("core.snapshot_bytes", float64(size), "bytes")
	return ns
}

// engineOps is the runtime surface the ladder drives, the same for every
// engine kind.
type engineOps struct {
	feed         func(lo, hi int) error
	flush, drain func() error
	best         func(fresh bool)
	depths       func() []int
	epochs       func() []uint64
	close        func()
}

func newEngine(sp spec, in *nodeInput, seed uint64, shards int) (*engineOps, error) {
	var ops *engineOps
	switch sp.kind {
	case kindInsert:
		e, err := feww.NewEngine(feww.EngineConfig{Config: feww.Config{N: in.n, D: sp.d, Alpha: sp.alpha, Seed: seed}, Shards: shards})
		if err != nil {
			return nil, err
		}
		ops = &engineOps{
			feed: func(lo, hi int) error { return e.ProcessEdges(in.edges[lo:hi]) },
			best: func(fresh bool) {
				if fresh {
					e.BestFresh()
				} else {
					e.Best()
				}
			},
			flush: e.Flush, drain: e.Drain, depths: e.QueueDepths, epochs: e.ViewEpochs, close: e.Close,
		}
	case kindTurnstile:
		e, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
			TurnstileConfig: feww.TurnstileConfig{N: in.n, M: sp.m, D: sp.d, Alpha: sp.alpha, Seed: seed, ScaleFactor: sp.scale},
			Shards:          shards,
		})
		if err != nil {
			return nil, err
		}
		ops = &engineOps{
			feed: func(lo, hi int) error { return e.ProcessUpdates(in.ups[lo:hi]) },
			best: func(fresh bool) {
				if fresh {
					e.ResultFresh()
				} else {
					e.Result()
				}
			},
			flush: e.Flush, drain: e.Drain, depths: e.QueueDepths, epochs: e.ViewEpochs, close: e.Close,
		}
	default:
		e, err := feww.NewWindowEngine(feww.WindowEngineConfig{
			Config: feww.Config{N: in.n, D: sp.d, Alpha: sp.alpha, Seed: seed},
			Window: sp.window, Buckets: sp.buckets, Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		ops = &engineOps{
			feed: func(lo, hi int) error { return e.ProcessEdges(in.edges[lo:hi]) },
			best: func(fresh bool) {
				if fresh {
					e.BestFresh()
				} else {
					e.Best()
				}
			},
			flush: e.Flush, drain: e.Drain, depths: e.QueueDepths, epochs: e.ViewEpochs, close: e.Close,
		}
	}
	return ops, nil
}

// feedAll feeds the node's stream the way the fewwd handler does: each
// body in decode chunks of up to 8192 updates, then a flush.  It returns
// the time spent inside the feed calls.
func feedAll(sp spec, in *nodeInput, e *engineOps) (time.Duration, error) {
	const chunk = 8192
	var inFeed time.Duration
	for lo := 0; lo < len(in.ups); lo += sp.bodyUpdates {
		hi := min(lo+sp.bodyUpdates, len(in.ups))
		start := time.Now()
		for c := lo; c < hi; c += chunk {
			if err := e.feed(c, min(c+chunk, hi)); err != nil {
				return inFeed, err
			}
		}
		if err := e.flush(); err != nil {
			return inFeed, err
		}
		inFeed += time.Since(start)
	}
	return inFeed, nil
}

// ladderRuntime times the engine at the given shard count, fed by one
// producer, and returns its ns per update including the final drain;
// detail also records the feed and drain parts.
func ladderRuntime(lr *layerResult, sp spec, in *nodeInput, seed uint64, shards int, detail bool) float64 {
	e, err := newEngine(sp, in, seed, shards)
	if !lr.step("runtime engine", err) {
		return 1
	}
	defer e.close()
	start := time.Now()
	inFeed, err := feedAll(sp, in, e)
	lr.step("runtime feed", err)
	drainStart := time.Now()
	lr.step("runtime drain", e.drain())
	total := time.Since(start)
	if detail {
		lr.set("runtime.feed_ns_per_update", float64(inFeed)/float64(len(in.ups)), "ns")
		lr.set("runtime.drain_ms", float64(time.Since(drainStart))/float64(time.Millisecond), "ms")
	}
	return float64(total) / float64(len(in.ups))
}

// ladderRuntimeQueries times published and fresh engine queries while one
// producer feeds the stream, sampling queue depths and view epochs.
func ladderRuntimeQueries(lr *layerResult, sp spec, in *nodeInput, seed uint64, shards int) {
	e, err := newEngine(sp, in, seed, shards)
	if !lr.step("runtime query engine", err) {
		return
	}
	defer e.close()
	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		_, err := feedAll(sp, in, e)
		lr.step("runtime query feed", err)
	}()
	sumEpochs := func() (s uint64) {
		for _, ep := range e.epochs() {
			s += ep
		}
		return s
	}
	var pub, fresh, depths []float64
	epoch0, start := sumEpochs(), time.Now()
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			s := time.Now()
			e.best(i%10 == 9)
			d := float64(time.Since(s))
			if i%10 == 9 {
				fresh = append(fresh, d/float64(time.Microsecond))
			} else {
				pub = append(pub, d)
			}
			q := 0
			for _, n := range e.depths() {
				q += n
			}
			depths = append(depths, float64(q))
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}
	elapsed := time.Since(start)
	epochs := sumEpochs() - epoch0
	wg.Wait()
	if len(fresh) == 0 {
		// The stream was applied before a fresh query came due; time a few
		// on the settled engine rather than report none.
		for i := 0; i < 3; i++ {
			s := time.Now()
			e.best(true)
			fresh = append(fresh, float64(time.Since(s))/float64(time.Microsecond))
		}
	}
	lr.bestPubNs, lr.bestFreshUs = median(pub), median(fresh)
	lr.set("runtime.best_pub_ns", lr.bestPubNs, "ns")
	lr.set("runtime.best_fresh_us", lr.bestFreshUs, "us")
	lr.set("runtime.fresh_over_pub_ratio", lr.bestFreshUs*1e3/lr.bestPubNs, "ratio")
	lr.set("runtime.view_epochs_per_s", float64(epochs)/elapsed.Seconds(), "1/s")
	lr.set("runtime.queue_depth_p50", median(depths), "updates")
	lr.set("runtime.queue_depth_max", quantile(depths, 1), "updates")
	fmt.Fprintf(os.Stderr, "perfbench: runtime queries under load: %d published, %d fresh\n", len(pub), len(fresh))
}

// ladderCluster sends the stream prefix through a three-member gateway
// and, for the self time, feeds fresh members their shares directly.
func ladderCluster(lr *layerResult, sp spec, ws *workStream, seed uint64) {
	const members = 3
	total := min(sp.ladderUpdates, ws.total)
	var ranges []cluster.Range
	if sp.kind == kindWindow {
		for j := 0; j < sp.members; j++ {
			ranges = append(ranges, cluster.Range{Lo: int64(j) * sp.n, Hi: int64(j+1) * sp.n})
		}
	} else {
		ranges = cluster.Split(sp.n, members)
	}
	bodies, shares, err := clusterBodies(sp, ws, ranges, total)
	if !lr.step("cluster input", err) {
		return
	}
	start := func() ([]*node, bool) {
		var nodes []*node
		for j, rg := range ranges {
			be, err := newBackend(sp, rg.Len(), 1, seed+uint64(j))
			if !lr.step("cluster member", err) {
				stopNodes(nodes)
				return nil, false
			}
			nodes = append(nodes, startNode(be))
		}
		return nodes, true
	}

	nodes, ok := start()
	if !ok {
		return
	}
	defer stopNodes(nodes)
	urls := make([]string, len(nodes))
	for j, nd := range nodes {
		urls[j] = nd.srv.URL
	}
	s := time.Now()
	g, err := cluster.New(cluster.Config{Members: urls})
	if !lr.step("cluster.New", err) {
		return
	}
	lr.set("cluster.new_ms", float64(time.Since(s))/float64(time.Millisecond), "ms")
	var gwIngests atomic.Int64
	gw := httptest.NewServer(countIngest(g.Handler(), &gwIngests))
	defer gw.Close()
	c := dial(gw.URL)
	defer c.close()
	s = time.Now()
	for _, body := range bodies {
		_, err := c.IngestStream(bytes.NewReader(body))
		lr.step("gateway /ingest", err)
	}
	_, err = c.StatsFresh()
	lr.step("gateway barrier", err)
	gwTime := time.Since(s)
	lr.set("cluster.ingest_ns_per_update", float64(gwTime)/float64(total), "ns")
	var memberIngests int64
	for _, nd := range nodes {
		memberIngests += nd.ingests.Load()
	}
	lr.set("cluster.fanout_ratio", float64(memberIngests)/float64(max(1, gwIngests.Load())), "ratio")
	reps := queryReps(sp)
	lr.set("cluster.best_pub_us", timeMedian(lr, reps, func() error { _, err := c.Best(); return err }), "us")
	lr.set("cluster.best_fresh_us", timeMedian(lr, reps, func() error { _, err := c.BestFresh(); return err }), "us")

	// The merge: the gateway's /results against its slowest member's.
	memberConns := make([]*conn, len(nodes))
	for j, nd := range nodes {
		memberConns[j] = dial(nd.srv.URL)
		defer memberConns[j].close()
	}
	var gwRes, memberRes []float64
	for i := 0; i < reps; i++ {
		slowest := 0.0
		for _, mc := range memberConns {
			s := time.Now()
			_, err := mc.get("/results?fresh=1")
			lr.step("member /results", err)
			slowest = max(slowest, float64(time.Since(s))/float64(time.Microsecond))
		}
		memberRes = append(memberRes, slowest)
		s := time.Now()
		_, err := c.get("/results?fresh=1")
		lr.step("gateway /results", err)
		gwRes = append(gwRes, float64(time.Since(s))/float64(time.Microsecond))
	}
	lr.set("cluster.results_merge_us", median(gwRes)-median(memberRes), "us")

	// Self time: fresh members, each fed its share directly, one at a time.
	direct, ok := start()
	if !ok {
		return
	}
	defer stopNodes(direct)
	slowest := time.Duration(0)
	for j, nd := range direct {
		mc := dial(nd.srv.URL)
		s := time.Now()
		for _, body := range shares[j] {
			_, err := mc.IngestStream(bytes.NewReader(body))
			lr.step("member /ingest", err)
		}
		_, err := mc.StatsFresh()
		lr.step("member barrier", err)
		slowest = max(slowest, time.Since(s))
		mc.close()
	}
	lr.set("cluster.self_ns_per_update", float64(gwTime-slowest)/float64(total), "ns")
}

func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.srv.Close()
		nd.be.Close()
	}
}

// clusterBodies encodes the stream prefix as gateway bodies of the spec's
// size and, per range, the member-local bodies the gateway forwards.
func clusterBodies(sp spec, ws *workStream, ranges []cluster.Range, total int) (gateway [][]byte, shares [][][]byte, err error) {
	shares = make([][][]byte, len(ranges))
	for lo := 0; lo < total; lo += sp.bodyUpdates {
		hi := min(lo+sp.bodyUpdates, total)
		ups := ws.slice(lo, hi)
		var buf bytes.Buffer
		if err := stream.WriteFile(&buf, ws.n, ws.m, ups); err != nil {
			return nil, nil, err
		}
		gateway = append(gateway, buf.Bytes())
		parts := make([][]stream.Update, len(ranges))
		for _, u := range ups {
			for j, rg := range ranges {
				if rg.Contains(u.A) {
					u.A -= rg.Lo
					parts[j] = append(parts[j], u)
					break
				}
			}
		}
		for j, part := range parts {
			if len(part) == 0 {
				continue
			}
			var mb bytes.Buffer
			if err := stream.WriteFile(&mb, ranges[j].Len(), ws.m, part); err != nil {
				return nil, nil, err
			}
			shares[j] = append(shares[j], mb.Bytes())
		}
	}
	return gateway, shares, nil
}
