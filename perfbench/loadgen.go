package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"feww/server"
)

// runResult gathers one run: as many passes as fit in the run length.  A
// pass builds a fresh system, pushes the whole stream through it, checks
// every answer and tears the system down, so every pass measures the same
// work and the same final state.
type runResult struct {
	passes    int
	setup     []float64 // s, per pass
	rates     []float64 // updates/s, per pass
	updates   int       // updates applied, over all passes
	ingestDur time.Duration
	ingestLat []float64 // ms, per /ingest request
	pubLat    []float64 // us, per published /best, from its scheduled send time
	freshLat  []float64 // us, per fresh /best, from its scheduled send time
	late      []float64 // ms, how late the generator sent each query
	lateFirst []float64 // ms, lateness over the first third of each pass's schedule
	lateLast  []float64 // ms, lateness over the last third

	spaceWords, snapshotBytes int
	heapMB                    float64
	recall                    float64

	attempted, failed int64
	violations        []string
}

// fail records a failed operation or a wrong answer.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.violations) < 20 {
		msg := fmt.Sprintf(format, args...)
		r.violations = append(r.violations, msg)
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", msg)
	}
}

func (r *runResult) correct() bool { return r.failed == 0 }

// runWorkload measures passes until the run length is used up (at least
// one).  expected, when set, is the byte form every pass's final
// /results?fresh=1 must equal.
func runWorkload(sp spec, ws *workStream, seed uint64, expected []byte, length time.Duration, tr *tracer) (*runResult, error) {
	r := &runResult{}
	start := time.Now()
	for {
		last, err := r.pass(sp, ws, seed, expected, start, length, tr)
		if err != nil {
			return nil, err
		}
		r.passes++
		if last {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes (updates/s %.4g..%.4g), %d ingest requests, %d published and %d fresh queries\n",
		sp.name, r.passes, quantile(r.rates, 0), quantile(r.rates, 1), len(r.ingestLat), len(r.pubLat), len(r.freshLat))
	return r, nil
}

// pass runs the stream once through a freshly built system.  It reports
// whether the run length is used up; the last pass also measures the heap
// the system held.  Only a system that cannot be built is an error; a
// failed request or a wrong answer is recorded and the pass carries on.
func (r *runResult) pass(sp spec, ws *workStream, seed uint64, expected []byte, runStart time.Time, length time.Duration, tr *tracer) (bool, error) {
	ps := tr.begin("pass", 0)
	sys, err := r.startTimed(sp, seed, tr, ps)
	if err != nil {
		return false, err
	}
	ing, qc := dial(sys.front), dial(sys.front)
	check := answerCheck(sp, ws, false)

	// The open-loop query generator runs beside ingest until the barrier
	// confirms the whole stream was applied.
	var (
		wg      sync.WaitGroup
		samples []querySample
		stop    = make(chan struct{})
	)
	begin := time.Now()
	if sp.queryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples = openLoop(begin, sp.queryRate, stop, 0, bestQuery(qc, sp.freshEvery, tr, ps), check)
		}()
	}
	accepted := 0
	for k, body := range ws.bodies {
		s := time.Now()
		resp, err := ing.IngestStream(bytes.NewReader(body))
		r.ingestLat = append(r.ingestLat, float64(time.Since(s))/float64(time.Millisecond))
		tr.record("ingest", ps, s, err)
		r.attempted++
		if err == nil && resp.Accepted != int64(ws.counts[k]) {
			err = fmt.Errorf("accepted %d of %d updates", resp.Accepted, ws.counts[k])
		}
		if err != nil {
			r.fail("ingest body %d: %v", k, err)
			break
		}
		accepted += ws.counts[k]
	}
	s := time.Now()
	stats, err := ing.StatsFresh()
	tr.record("barrier", ps, s, err)
	elapsed := time.Since(begin)
	close(stop)
	wg.Wait()
	r.attempted++
	switch {
	case err != nil:
		r.fail("fresh /stats barrier: %v", err)
	case stats.Elements != int64(accepted) || accepted != ws.total:
		r.fail("barrier reports %d elements applied, %d of %d accepted", stats.Elements, accepted, ws.total)
	default:
		r.rates = append(r.rates, float64(accepted)/elapsed.Seconds())
		r.updates += accepted
		r.ingestDur += elapsed
		if r.passes > 0 && (stats.SpaceWords != r.spaceWords || stats.SnapshotBytes != r.snapshotBytes) {
			r.fail("pass %d ended at %d words / %d snapshot bytes, pass 0 at %d / %d: not deterministic",
				r.passes, stats.SpaceWords, stats.SnapshotBytes, r.spaceWords, r.snapshotBytes)
		}
		r.spaceWords, r.snapshotBytes = stats.SpaceWords, stats.SnapshotBytes
	}
	if sp.settledQueries > 0 {
		samples = append(samples, openLoop(time.Now(), sp.settledRate, nil, sp.settledQueries,
			bestQuery(qc, sp.settledFreshEvery, tr, ps), check)...)
	}
	r.addQueries(samples)

	r.checkFinal(sp, ws, qc, expected, tr, ps)
	ing.close()
	qc.close()

	last := time.Since(runStart) >= length
	if last {
		before := liveHeap()
		sys.close()
		sys = nil
		r.heapMB = (before - liveHeap()) / (1 << 20)
	} else {
		sys.close()
	}
	tr.end(ps, nil)
	return last, nil
}

// startTimed builds the pass's system setupReps times, tearing down all
// but the last, and records the median build time: one build of a small
// engine takes well under a millisecond, too short to read once.
func (r *runResult) startTimed(sp spec, seed uint64, tr *tracer, parent int) (*system, error) {
	var (
		sys   *system
		times []float64
	)
	for i := 0; i < max(1, sp.setupReps); i++ {
		if sys != nil {
			sys.close()
		}
		s := time.Now()
		var err error
		if sys, err = startSystem(sp, seed); err != nil {
			return nil, err
		}
		times = append(times, time.Since(s).Seconds())
		tr.record("setup", parent, s, nil)
	}
	r.setup = append(r.setup, median(times))
	return sys, nil
}

// lateTail is the q-quantile of how late the generator sent queries.
func (r *runResult) lateTail(q float64) float64 { return quantile(r.late, q) }

// addQueries folds one pass's query samples into the run.
func (r *runResult) addQueries(samples []querySample) {
	third := len(samples) / 3
	for i, q := range samples {
		r.attempted++
		late := float64(q.late) / float64(time.Millisecond)
		r.late = append(r.late, late)
		if i < third {
			r.lateFirst = append(r.lateFirst, late)
		} else if i >= len(samples)-third {
			r.lateLast = append(r.lateLast, late)
		}
		if q.err != nil {
			r.fail("query %d: %v", q.index, q.err)
			continue
		}
		us := float64(q.latency) / float64(time.Microsecond)
		if q.fresh {
			r.freshLat = append(r.freshLat, us)
		} else {
			r.pubLat = append(r.pubLat, us)
		}
	}
}

// checkFinal verifies the final answer: /results?fresh=1 must be sound,
// and byte-identical to the reference engine's where there is one.  It
// sets the run's heavy recall.
func (r *runResult) checkFinal(sp spec, ws *workStream, qc *conn, expected []byte, tr *tracer, parent int) {
	s := time.Now()
	body, err := qc.get("/results?fresh=1")
	tr.record("results", parent, s, err)
	r.attempted++
	if err != nil {
		r.fail("final /results?fresh=1: %v", err)
		return
	}
	if expected != nil {
		if err := compareResults(body, expected); err != nil {
			r.fail("%v", err)
		}
	}
	recall, err := finalCheck(sp, ws, body)
	if err != nil {
		r.fail("final answer: %v", err)
	}
	r.recall = recall
}

// liveHeap is the live heap after a full collection, in bytes.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// querySample is one open-loop query: how late the generator sent it
// against its schedule, and its latency measured from the scheduled send
// time, so a stall is charged to every query queued behind it.
type querySample struct {
	index         int
	fresh         bool
	late, latency time.Duration
	err           error
}

// query issues query i and returns whether it asked for ?fresh=1.
type query func(i int) (fresh bool, resp server.BestResponse, err error)

// openLoop sends queries on a fixed schedule over one connection: query
// i is due at start + i/rate, whatever happened to the queries before
// it.  It stops when stop closes or after limit queries (limit <= 0: no
// limit).  A query is sent as soon as it is due, or at once if the
// previous one returned late, and check judges every answer that came
// back, outside the timed interval.
func openLoop(start time.Time, rate float64, stop <-chan struct{}, limit int, q query, check func(server.BestResponse) error) []querySample {
	interval := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var out []querySample
	for i := 0; limit <= 0 || i < limit; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		sent := time.Now()
		fresh, resp, err := q(i)
		done := time.Now()
		if err == nil && check != nil {
			err = check(resp)
		}
		out = append(out, querySample{index: i, fresh: fresh, late: sent.Sub(due), latency: done.Sub(due), err: err})
	}
	return out
}

// bestQuery issues /best over c, every freshEvery-th one with ?fresh=1.
func bestQuery(c *conn, freshEvery int, tr *tracer, parent int) query {
	return func(i int) (bool, server.BestResponse, error) {
		fresh := freshEvery > 0 && i%freshEvery == freshEvery-1
		s := time.Now()
		var (
			b   server.BestResponse
			err error
		)
		if fresh {
			b, err = c.BestFresh()
			tr.record("query.fresh", parent, s, err)
		} else {
			b, err = c.Best()
			tr.record("query.pub", parent, s, err)
		}
		return fresh, b, err
	}
}
