package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"feww/internal/stream"
	"feww/server"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with: the workload names and every metric's name and unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return bf
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced: every answer must check out, and the run must report
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		sp, ok := specs[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := execute(sp.tiny(), 1, 100*time.Millisecond, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, rep.Correct, rep.Failed, rep.Attempted)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json names %d", traced, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s not reported", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%v: %s reported in %q, BENCHMARK.json says %q", traced, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}

// TestChecksRejectFabricatedWitnesses plants witnesses the stream never
// produced into otherwise genuine answers, for every kind.
func TestChecksRejectFabricatedWitnesses(t *testing.T) {
	sp := specs["ingest-zipf"].tiny()
	ws, err := generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := int64(ws.items[0])
	other := slices.IndexFunc(ws.items, func(item int32) bool { return int64(item) != a })
	best := func(witnesses ...int64) server.BestResponse {
		return server.BestResponse{Found: true, Neighbourhood: &server.NeighbourhoodJSON{
			Vertex: a, Size: len(witnesses), Witnesses: witnesses,
		}}
	}
	check := answerCheck(sp, ws, false)
	if err := check(best(0)); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	for name, b := range map[string]server.BestResponse{
		"another item's arrival":  best(0, int64(other)),
		"a position past the end": best(0, int64(ws.total)),
		"a repeated witness":      best(0, 0),
	} {
		if check(b) == nil {
			t.Errorf("insert-only answer with %s accepted", name)
		}
	}

	tsp := specs["turnstile-churn"].tiny()
	tws, err := generate(tsp, 1)
	if err != nil {
		t.Fatal(err)
	}
	var deleted stream.Edge
	for e := range tws.inserted {
		if !tws.final[e] {
			deleted = e
			break
		}
	}
	if err := checkWitnesses(tsp, tws, deleted.A, []int64{deleted.B}, false); err != nil {
		t.Errorf("published answer holding a since-deleted edge rejected: %v", err)
	}
	if checkWitnesses(tsp, tws, deleted.A, []int64{deleted.B}, true) == nil {
		t.Errorf("final answer holding deleted edge %v accepted", deleted)
	}
	for b := int64(0); b < tsp.m; b++ {
		if !tws.inserted[stream.Edge{A: deleted.A, B: b}] {
			if checkWitnesses(tsp, tws, deleted.A, []int64{b}, false) == nil {
				t.Errorf("turnstile answer with never-inserted edge (%d,%d) accepted", deleted.A, b)
			}
			break
		}
	}

	wsp := specs["gateway-window"].tiny()
	wws, err := generate(wsp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wws.windowStart == 0 {
		t.Fatal("tiny window stream never outgrows its window")
	}
	first := int64(wws.items[0])
	if err := checkWitnesses(wsp, wws, first, []int64{0}, false); err != nil {
		t.Errorf("genuine window arrival rejected mid-stream: %v", err)
	}
	if checkWitnesses(wsp, wws, first, []int64{0}, true) == nil {
		t.Error("final window answer with a witness before the window start accepted")
	}
}

// TestChecksRejectWrongResultSet feeds the final check the reference
// engine's own answer, then the same answer missing a neighbourhood and
// with a neighbourhood cut below the witness target.
func TestChecksRejectWrongResultSet(t *testing.T) {
	sp := specs["ingest-zipf"].tiny()
	ws, err := generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := referenceResults(sp, ws, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recall, err := finalCheck(sp, ws, expected); err != nil || recall <= 0 {
		t.Fatalf("reference answer: recall %v, error %v", recall, err)
	}
	if err := compareResults(expected, expected); err != nil {
		t.Fatal(err)
	}
	var nbs []server.NeighbourhoodJSON
	if err := json.Unmarshal(expected, &nbs); err != nil {
		t.Fatal(err)
	}
	if len(nbs) < 2 {
		t.Fatalf("tiny reference answer holds %d neighbourhoods, want several", len(nbs))
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if compareResults(encode(nbs[1:]), expected) == nil {
		t.Error("result set missing a neighbourhood matched the reference")
	}
	short := slices.Clone(nbs)
	short[0].Witnesses, short[0].Size = short[0].Witnesses[:1], 1
	if _, err := finalCheck(sp, ws, encode(short)); err == nil {
		t.Error("neighbourhood below the witness target accepted")
	}
}

// TestOpenLoopChargesStall stalls one query: every query scheduled
// behind it must be charged the wait, in its latency and in how late the
// generator sent it, and so in the run's late tail.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 2
	)
	q := func(i int) (bool, server.BestResponse, error) {
		if i == stalled {
			time.Sleep(stall)
		}
		return false, server.BestResponse{}, nil
	}
	samples := openLoop(time.Now(), float64(time.Second/interval), nil, 20, q, nil)
	if len(samples) != 20 {
		t.Fatalf("%d samples, want 20", len(samples))
	}
	if samples[stalled].latency < stall {
		t.Errorf("stalled query latency %v, want >= %v", samples[stalled].latency, stall)
	}
	// The stalled query returned no earlier than its due time plus the
	// stall; query i, due at i*interval, could not be sent before then.
	free := time.Duration(stalled)*interval + stall
	for i := stalled + 1; time.Duration(i)*interval < free; i++ {
		s := samples[i]
		if want := free - time.Duration(i)*interval; s.late < want {
			t.Errorf("query %d sent %v late, want >= %v", i, s.late, want)
		}
		if s.latency < s.late {
			t.Errorf("query %d latency %v below its lateness %v", i, s.latency, s.late)
		}
	}
	var r runResult
	r.addQueries(samples)
	if got, want := r.lateTail(0.99), float64(stall-2*interval)/float64(time.Millisecond); got < want {
		t.Errorf("late tail %.1f ms, want >= %.1f ms", got, want)
	}
}

// TestSameSeedSameCounts runs each tiny workload twice on one seed: the
// paper's cost and the recall must repeat exactly.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range workloadNames() {
		sp := specs[name].tiny()
		a, err := execute(sp, 5, time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := execute(sp, 5, time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"space_words", "snapshot_bytes", "heavy_recall"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s %v then %v on the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}
