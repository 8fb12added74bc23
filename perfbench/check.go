package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"feww/internal/core"
	"feww/internal/stream"
	"feww/server"
)

// checkWitnesses judges one served neighbourhood against the stream: its
// witnesses must be distinct and genuine.  For the insert and window
// kinds a witness is an arrival position, so item a must have arrived at
// it; a final window answer must also lie inside the final window.  For
// the turnstile kind a witness must be an edge of the final graph (final)
// or at least an edge the stream inserted (a published answer may lag a
// later deletion).
func checkWitnesses(sp spec, ws *workStream, a int64, witnesses []int64, final bool) error {
	seen := make(map[int64]struct{}, len(witnesses))
	for _, b := range witnesses {
		if _, dup := seen[b]; dup {
			return fmt.Errorf("item %d: duplicate witness %d", a, b)
		}
		seen[b] = struct{}{}
		if ws.ups != nil {
			graph, which := ws.inserted, "inserted"
			if final {
				graph, which = ws.final, "final"
			}
			if !graph[stream.Edge{A: a, B: b}] {
				return fmt.Errorf("fabricated witness: edge (%d,%d) is not in the %s graph", a, b, which)
			}
			continue
		}
		if b < 0 || b >= int64(len(ws.items)) || int64(ws.items[b]) != a {
			return fmt.Errorf("fabricated witness: item %d did not arrive at position %d", a, b)
		}
		if final && sp.kind == kindWindow && b < ws.windowStart {
			return fmt.Errorf("stale witness: position %d of item %d is before the window start %d", b, a, ws.windowStart)
		}
	}
	return nil
}

// answerCheck judges a /best answer served while the stream runs.
func answerCheck(sp spec, ws *workStream, final bool) func(server.BestResponse) error {
	return func(b server.BestResponse) error {
		if !b.Found || b.Neighbourhood == nil {
			return nil
		}
		nb := b.Neighbourhood
		if nb.Size != len(nb.Witnesses) {
			return fmt.Errorf("item %d: size %d with %d witnesses", nb.Vertex, nb.Size, len(nb.Witnesses))
		}
		return checkWitnesses(sp, ws, nb.Vertex, nb.Witnesses, final)
	}
}

// compareResults reports whether a served /results body equals the
// reference engine's byte for byte.
func compareResults(body, expected []byte) error {
	if bytes.Equal(body, expected) {
		return nil
	}
	return fmt.Errorf("final /results?fresh=1 (%d bytes) differs from the reference engine's (%d bytes)", len(body), len(expected))
}

// finalCheck judges the final /results?fresh=1 body: every neighbourhood
// full-target and every witness genuine.  It returns the heavy recall:
// the share of the items of frequency >= d (in the final graph, or the
// final window) that the answer reports with >= ceil(d/alpha) verified
// witnesses.
func finalCheck(sp spec, ws *workStream, body []byte) (float64, error) {
	var nbs []server.NeighbourhoodJSON
	if err := json.Unmarshal(body, &nbs); err != nil {
		return 0, fmt.Errorf("decoding /results: %w", err)
	}
	target := core.CeilDiv(sp.d, int64(sp.alpha))
	reported := make(map[int64]bool, len(nbs))
	for _, nb := range nbs {
		if nb.Size != len(nb.Witnesses) || int64(nb.Size) < target {
			return 0, fmt.Errorf("item %d served with %d witnesses (size %d), target %d", nb.Vertex, len(nb.Witnesses), nb.Size, target)
		}
		if err := checkWitnesses(sp, ws, nb.Vertex, nb.Witnesses, true); err != nil {
			return 0, err
		}
		reported[nb.Vertex] = true
	}
	if len(ws.heavy) == 0 {
		return 0, fmt.Errorf("the stream holds no item of frequency >= %d to recall", sp.d)
	}
	hit := 0
	for _, a := range ws.heavy {
		if reported[a] {
			hit++
		}
	}
	return float64(hit) / float64(len(ws.heavy)), nil
}
