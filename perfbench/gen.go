package main

import (
	"bytes"
	"fmt"
	"slices"

	"feww/internal/core"
	"feww/internal/stream"
	"feww/internal/workload"
	"feww/internal/xrand"
)

// workStream is a workload's generated input: the encoded /ingest bodies
// one pass sends, in order, and the ground truth the checks judge the
// served answers by.  It is a pure function of the spec and the seed.
type workStream struct {
	n, m   int64 // universe the bodies declare (the whole cluster's for kindWindow)
	bodies [][]byte
	counts []int // updates per body
	total  int

	// items[t] is the item that arrived at position t; the insert and
	// window kinds use the arrival position as the witness, so a served
	// witness b of item a is genuine exactly when items[b] == a.
	items []int32

	// The turnstile stream, its final graph, and every edge it ever
	// inserts (a published answer may lag a later deletion).
	ups      []stream.Update
	final    map[stream.Edge]bool
	inserted map[stream.Edge]bool

	// heavy lists the items of frequency >= d: over the whole stream, in
	// the turnstile final graph, or in the final window (kindWindow).
	heavy []int64
	// windowStart is the first position of the final global window
	// (kindWindow); every served witness must lie in [windowStart, total).
	windowStart int64
}

// update returns the update at stream position t.
func (ws *workStream) update(t int) stream.Update {
	if ws.ups != nil {
		return ws.ups[t]
	}
	return stream.Ins(int64(ws.items[t]), int64(t))
}

// slice returns the updates at positions [lo, hi) in a fresh slice.
func (ws *workStream) slice(lo, hi int) []stream.Update {
	out := make([]stream.Update, hi-lo)
	for t := lo; t < hi; t++ {
		out[t-lo] = ws.update(t)
	}
	return out
}

// generate builds the workload's stream from the seed.
func generate(sp spec, seed uint64) (*workStream, error) {
	ws := &workStream{n: sp.n, m: sp.m}
	switch sp.kind {
	case kindInsert:
		ws.items = zipfItems(seed, sp.n, sp.passUpdates)
		ws.heavy = frequent(ws.items, 0, sp.d)
	case kindTurnstile:
		inst, err := workload.NewChurn(workload.ChurnConfig{
			Planted: workload.PlantedConfig{
				N: sp.n, M: sp.m, Heavy: sp.heavy, HeavyDeg: sp.d, NoiseEdges: sp.noise, Seed: seed,
				// Noise stays below the witness target, so only a planted
				// item can be certified and the recall is meaningful.
				MaxNoise: sp.d / 4,
			},
			ChurnEdges: sp.churn,
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		// The planted items move to fixed ids (swapping places with
		// whatever held them): a turnstile query scans its sampled items in
		// id order, so its cost follows where the heavies sit, and fixing
		// that keeps the query cost from changing with the seed.
		p, inv := make([]int64, sp.n), make([]int64, sp.n)
		for a := range p {
			p[a], inv[a] = int64(a), int64(a)
		}
		for i, a := range inst.HeavyA {
			to := int64(2*i+1)*sp.n/int64(2*len(inst.HeavyA)) + int64(i)
			x := inv[to]
			p[a], p[x] = p[x], p[a]
			inv[p[a]], inv[p[x]] = a, x
			ws.heavy = append(ws.heavy, to)
		}
		id := func(a int64) int64 { return p[a] }
		ws.final = make(map[stream.Edge]bool, len(inst.Truth))
		for e := range inst.Truth {
			ws.final[stream.Edge{A: id(e.A), B: e.B}] = true
		}
		ws.inserted = make(map[stream.Edge]bool, len(inst.Updates))
		for _, u := range inst.Updates {
			u.A = id(u.A)
			ws.ups = append(ws.ups, u)
			if u.Op == stream.Insert {
				ws.inserted[u.Edge] = true
			}
		}
		slices.Sort(ws.heavy)
	case kindWindow:
		items, err := windowItems(sp, seed)
		if err != nil {
			return nil, err
		}
		ws.items, ws.n = items, int64(sp.members)*sp.n
		ws.windowStart = core.WindowStart(int64(len(items)), int64(sp.members)*sp.window, sp.buckets)
		ws.heavy = frequent(items, ws.windowStart, sp.d)
	}
	if ws.ups != nil {
		ws.total = len(ws.ups)
	} else {
		ws.total = len(ws.items)
	}
	var buf bytes.Buffer
	for lo := 0; lo < ws.total; lo += sp.bodyUpdates {
		hi := min(lo+sp.bodyUpdates, ws.total)
		buf.Reset()
		if err := stream.WriteFile(&buf, ws.n, ws.m, ws.slice(lo, hi)); err != nil {
			return nil, err
		}
		ws.bodies = append(ws.bodies, bytes.Clone(buf.Bytes()))
		ws.counts = append(ws.counts, hi-lo)
	}
	return ws, nil
}

// zipfItems draws total Zipf(1.2) ranks over [0, n) and maps them through
// a seeded permutation, so the heavy head is not simply the low ids.
func zipfItems(seed uint64, n int64, total int) []int32 {
	rng := xrand.New(seed)
	z := xrand.NewZipf(rng, 1.2, int(n))
	perm := rng.Perm(int(n))
	items := make([]int32, total)
	for t := range items {
		items[t] = int32(perm[z.Next()])
	}
	return items
}

// windowItems builds the gateway workload's rotating-heavy window Zipf
// stream: one item sequence per member range, interleaved strictly
// round-robin with range r's items offset by r*n — the layout of
// workload.ComposeWindowStream, kept as a flat item array instead of a
// per-edge truth map.  Each range's heavy head moves about once per
// global window.
func windowItems(sp spec, seed uint64) ([]int32, error) {
	r := sp.members
	per := sp.passUpdates / r
	phases := max(2, sp.passUpdates/(r*int(sp.window)))
	parts := make([][]int64, r)
	for i := range parts {
		part, err := workload.WindowZipfItems(workload.WindowZipfConfig{
			N: sp.n, Total: per, Phases: phases, Seed: seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		parts[i] = part
	}
	items := make([]int32, per*r)
	for t := range items {
		a := parts[t%r][t/r]
		if a < 0 || a >= sp.n {
			return nil, fmt.Errorf("window stream: item %d outside [0, %d)", a, sp.n)
		}
		items[t] = int32(int64(t%r)*sp.n + a)
	}
	return items, nil
}

// frequent returns the items occurring at least d times at positions
// [start, len(items)), ascending.
func frequent(items []int32, start int64, d int64) []int64 {
	counts := make(map[int32]int64)
	for _, a := range items[start:] {
		counts[a]++
	}
	var out []int64
	for a, c := range counts {
		if c >= d {
			out = append(out, int64(a))
		}
	}
	slices.Sort(out)
	return out
}
