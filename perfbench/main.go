// Command perfbench is the repository benchmark: it runs one named
// workload against the FEwW service, served in this process over loopback
// HTTP, checks every answer the service gives, and prints the measured
// metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced and then traced (spans kept
// in memory around every client call), replays the workload's own stream
// through each layer's public functions, and reports the per-layer
// metrics.  A wrong answer makes the run print "correct": false and exit
// with status 1; a run that cannot start exits with status 2 and prints
// no result.  README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// kind selects the system under test.
type kind int

const (
	kindInsert    kind = iota // insertion-only Engine behind fewwd
	kindTurnstile             // TurnstileEngine behind fewwd
	kindWindow                // WindowEngine members behind a cluster gateway
)

// spec is one workload: the system it builds, the stream it generates
// from the seed, and the load it applies.
type spec struct {
	name string
	kind kind

	// The problem, per node (per member for kindWindow).
	n, m    int64
	d       int64
	alpha   int
	scale   float64 // turnstile ScaleFactor
	window  int64   // member window length (kindWindow)
	buckets int64   // member bucket count (kindWindow)
	members int     // gateway members; 0 serves one node directly
	shards  int     // shards per engine; 0 means GOMAXPROCS

	// setupReps is how many times a pass builds its system; setup_s is
	// the median build time.
	setupReps int
	// engineSeed, when set, seeds the engines whatever the workload seed:
	// the turnstile query cost depends on which items the engine samples,
	// so letting the seed move it would blur every query metric.
	engineSeed uint64

	// The stream one pass ingests, and how it is cut into /ingest bodies.
	passUpdates int
	bodyUpdates int
	heavy       int // turnstile: planted items of degree d
	noise       int // turnstile: noise edges
	churn       int // turnstile: edges inserted and later deleted

	// Queries.  queryRate is the open-loop /best rate while ingest runs,
	// every freshEvery-th with ?fresh=1 (0: none); settledQueries more are
	// sent at settledRate after the pass's barrier, every
	// settledFreshEvery-th fresh.
	queryRate         float64
	freshEvery        int
	settledQueries    int
	settledRate       float64
	settledFreshEvery int

	// The quantile reported as each _tail_ metric: p90 where a run holds
	// at least ten samples beyond it, else p75.  p99 would have enough
	// samples on the Zipf workloads but moved by more than half between
	// runs of one build on a 2-CPU host.
	tailIngest, tailPub, tailFresh float64

	// ladderUpdates caps the stream prefix the per-layer ladder replays.
	ladderUpdates int
}

// specs are the four workloads.  README.md says why each was chosen.
var specs = map[string]spec{
	"ingest-zipf": {
		name: "ingest-zipf", kind: kindInsert,
		n: 1 << 18, d: 1000, alpha: 2,
		passUpdates: 1 << 21, bodyUpdates: 1 << 14,
		setupReps: 5, settledQueries: 200, settledRate: 500, settledFreshEvery: 10,
		tailIngest: 0.90, tailPub: 0.90, tailFresh: 0.90,
		ladderUpdates: 1 << 21,
	},
	"serve-zipf": {
		name: "serve-zipf", kind: kindInsert,
		n: 1 << 18, d: 1000, alpha: 2,
		passUpdates: 1 << 21, bodyUpdates: 1 << 14,
		setupReps: 5, queryRate: 100, freshEvery: 10,
		tailIngest: 0.90, tailPub: 0.90, tailFresh: 0.75,
		ladderUpdates: 1 << 21,
	},
	"turnstile-churn": {
		name: "turnstile-churn", kind: kindTurnstile,
		n: 256, m: 1024, d: 32, alpha: 2, scale: 0.01,
		heavy: 2, noise: 400, churn: 300, bodyUpdates: 8, setupReps: 1, engineSeed: 1,
		queryRate: 10, settledQueries: 10, settledRate: 2, settledFreshEvery: 1,
		tailIngest: 0.90, tailPub: 0.90, tailFresh: 0.75,
		ladderUpdates: 256,
	},
	"gateway-window": {
		name: "gateway-window", kind: kindWindow,
		n: 1 << 16, d: 200, alpha: 2, window: 1 << 18, buckets: 8, members: 3, shards: 1,
		passUpdates: 3 << 19, bodyUpdates: 1 << 14,
		setupReps: 5, queryRate: 25, freshEvery: 5,
		tailIngest: 0.90, tailPub: 0.90, tailFresh: 0.75,
		ladderUpdates: 3 << 18,
	},
}

// tiny shrinks a workload to a few seconds of work for the self-tests:
// the same code paths on a fraction of the stream.
func (sp spec) tiny() spec {
	switch sp.kind {
	case kindInsert:
		sp.n, sp.d = 1<<12, 50
		sp.passUpdates, sp.bodyUpdates, sp.ladderUpdates = 1<<15, 1<<11, 1<<14
	case kindTurnstile:
		sp.n, sp.m, sp.d, sp.scale = 32, 128, 8, 0.05
		sp.noise, sp.churn, sp.ladderUpdates = 40, 30, 64
	case kindWindow:
		sp.n, sp.d, sp.window = 1<<10, 20, 1<<12
		sp.passUpdates, sp.bodyUpdates, sp.ladderUpdates = 3<<13, 1<<11, 3<<12
	}
	if sp.settledQueries > 0 {
		sp.settledQueries = 40
	}
	return sp
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed on the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "stream and engine seed")
		seconds = flag.Float64("seconds", 10, "how long each measured run lasts")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run and the layer ladder")
	)
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := execute(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execute runs one invocation: the untraced run for the end-to-end
// metrics, or the untraced run, the traced run and the layer ladder for
// the per-layer metrics.
func execute(sp spec, seed uint64, length time.Duration, traced bool) (report, error) {
	st, err := generate(sp, seed)
	if err != nil {
		return report{}, err
	}
	if sp.engineSeed != 0 {
		seed = sp.engineSeed // the stream above still follows the workload seed
	}
	// Single-node answers must equal an in-process reference engine's.
	var expected []byte
	if sp.members == 0 {
		if expected, err = referenceResults(sp, st, seed); err != nil {
			return report{}, err
		}
	}
	plain, err := runWorkload(sp, st, seed, expected, length, nil)
	if err != nil {
		return report{}, err
	}
	if !traced {
		return plain.report(sp, plain.endToEnd(sp)), nil
	}
	tr := newTracer()
	withSpans, err := runWorkload(sp, st, seed, expected, length, tr)
	if err != nil {
		return report{}, err
	}
	layers, err := ladder(sp, st, seed)
	if err != nil {
		return report{}, err
	}
	ms := layers.metrics
	for k, v := range tr.metrics(sp, withSpans, plain, layers) {
		ms[k] = v
	}
	rep := withSpans.report(sp, ms)
	rep.Correct = rep.Correct && plain.correct() && layers.err == nil
	if layers.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer ladder: %v\n", layers.err)
		rep.Failed++
	}
	rep.Attempted += plain.attempted + layers.attempted
	rep.Failed += plain.failed
	return rep, nil
}
