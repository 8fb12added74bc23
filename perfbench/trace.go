package main

import (
	"sync"
	"time"
)

// span is one traced interval: a client call into the system (an /ingest
// request, a query, the barrier, the final /results read) or the pass
// that caused it.  Spans of one pass share its id as their parent.
type span struct {
	name       string
	id, parent int
	start, end time.Duration // since the tracer's epoch
	failed     bool
}

// tracer keeps spans in memory for the traced run.  A nil tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: time.Since(t.epoch), end: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int, err error) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = time.Since(t.epoch)
	t.spans[id-1].failed = err != nil
}

// record adds a closed span that began at start and ends now.
func (t *tracer) record(name string, parent int, start time.Time, err error) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, id: len(t.spans) + 1, parent: parent,
		start: start.Sub(t.epoch), end: end, failed: err != nil,
	})
}

// durations returns the lengths of the closed spans named name, in us,
// and how many spans of any name failed.
func (t *tracer) durations(name string) (us []float64, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.failed {
			failed++
		}
		if s.name == name && s.end >= 0 {
			us = append(us, float64(s.end-s.start)/float64(time.Microsecond))
		}
	}
	return us, failed
}

// metrics derives the load generator's per-layer metrics from the traced
// run's spans, the tracing overhead against the untraced run, and the
// split of fresh query latency into the runtime's barrier wait and the
// HTTP share, using the ladder's in-process query timings.
func (t *tracer) metrics(sp spec, traced, plain *runResult, layers *layerResult) map[string]metric {
	ingests, failed := t.durations("ingest")
	pubs, _ := t.durations("query.pub")
	freshes, _ := t.durations("query.fresh")
	ms := map[string]metric{
		"loadgen.late_tail_ms":      {traced.lateTail(sp.tailPub), "ms"},
		"loadgen.late_drift_ms":     {quantile(traced.lateLast, 0.9) - quantile(traced.lateFirst, 0.9), "ms"},
		"loadgen.ingest_requests":   {float64(len(ingests)), "count"},
		"loadgen.queries_sent":      {float64(len(pubs) + len(freshes)), "count"},
		"loadgen.fresh_service_us":  {median(freshes), "us"},
		"server.http_errors":        {float64(failed), "count"},
		"trace.overhead_frac":       {1 - traced.ingestRate()/plain.ingestRate(), "fraction"},
		"runtime.fresh_barrier_us":  {layers.bestFreshUs - layers.bestPubNs/1e3, "us"},
		"server.fresh_http_us":      {median(freshes) - layers.bestFreshUs, "us"},
		"server.pub_http_us":        {median(pubs) - layers.bestPubNs/1e3, "us"},
		"loadgen.ingest_service_ms": {median(ingests) / 1e3, "ms"},
	}
	return ms
}
