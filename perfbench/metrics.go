package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// quantile is the q-quantile of values, interpolated linearly between
// the closest ranks; NaN when there are none.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// tail is the q-quantile reported as a _tail_ metric.  It warns when the
// run holds fewer than ten samples beyond it, which makes the figure
// unreliable; the quantile for each workload is chosen so that every run
// holds enough.
func tail(name string, values []float64, q float64) float64 {
	if beyond := float64(len(values)) * (1 - q); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s: only %.0f of %d samples beyond p%.0f\n", name, beyond, len(values), 100*q)
	}
	return quantile(values, q)
}

// endToEnd is the untraced run's end-to-end metric set.
func (r *runResult) endToEnd(sp spec) map[string]metric {
	return map[string]metric{
		"setup_s":              {median(r.setup), "s"},
		"ingest_updates_per_s": {r.ingestRate(), "1/s"},
		"ingest_req_p50_ms":    {median(r.ingestLat), "ms"},
		"ingest_req_tail_ms":   {tail("ingest_req_tail_ms", r.ingestLat, sp.tailIngest), "ms"},
		"query_pub_p50_us":     {median(r.pubLat), "us"},
		"query_pub_tail_us":    {tail("query_pub_tail_us", r.pubLat, sp.tailPub), "us"},
		"query_fresh_p50_us":   {median(r.freshLat), "us"},
		"query_fresh_tail_us":  {tail("query_fresh_tail_us", r.freshLat, sp.tailFresh), "us"},
		"space_words":          {float64(r.spaceWords), "words"},
		"snapshot_bytes":       {float64(r.snapshotBytes), "bytes"},
		"heap_mb":              {r.heapMB, "MB"},
		"heavy_recall":         {r.recall, "fraction"},
	}
}

// ingestRate is the run's ingest throughput: the updates of every pass
// over the summed time from each pass's first ingest byte to its barrier.
// Pooling the passes, rather than taking their median, keeps the figure
// from jumping between the fast and slow passes a 2-CPU host produces
// when producer and shard workers contend for the processors.
func (r *runResult) ingestRate() float64 { return float64(r.updates) / r.ingestDur.Seconds() }

// report wraps a metric set with the run's correctness and counts.
func (r *runResult) report(sp spec, ms map[string]metric) report {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s has no samples\n", sp.name, name)
			m.Value = 0
			ms[name] = m
		}
	}
	return report{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: ms}
}
