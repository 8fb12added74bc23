package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"feww"
	"feww/cluster"
	"feww/server"
)

// system is one instance of the service under test, served over loopback
// HTTP from this process: a single fewwd handler, or member handlers
// behind a cluster gateway.  front is where the load goes.
type system struct {
	front   string
	nodes   []*node
	gateway *httptest.Server
}

// node is one fewwd handler and the engine behind it.
type node struct {
	be      server.Backend
	srv     *httptest.Server
	ingests atomic.Int64 // /ingest requests this node received
}

// newBackend builds one engine of the spec's kind over n items.
func newBackend(sp spec, n int64, shards int, seed uint64) (server.Backend, error) {
	switch sp.kind {
	case kindInsert:
		e, err := feww.NewEngine(feww.EngineConfig{
			Config: feww.Config{N: n, D: sp.d, Alpha: sp.alpha, Seed: seed},
			Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		return server.NewInsertOnlyBackend(e), nil
	case kindTurnstile:
		e, err := feww.NewTurnstileEngine(feww.TurnstileEngineConfig{
			TurnstileConfig: feww.TurnstileConfig{N: n, M: sp.m, D: sp.d, Alpha: sp.alpha, Seed: seed, ScaleFactor: sp.scale},
			Shards:          shards,
		})
		if err != nil {
			return nil, err
		}
		return server.NewTurnstileBackend(e), nil
	default:
		e, err := feww.NewWindowEngine(feww.WindowEngineConfig{
			Config: feww.Config{N: n, D: sp.d, Alpha: sp.alpha, Seed: seed},
			Window: sp.window, Buckets: sp.buckets, Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		return server.NewWindowBackend(e), nil
	}
}

// startNode serves a backend on a loopback listener, counting /ingest
// requests on the way in.
func startNode(be server.Backend) *node {
	nd := &node{be: be}
	h := server.New(be, server.Config{}).Handler()
	nd.srv = httptest.NewServer(countIngest(h, &nd.ingests))
	return nd
}

func countIngest(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			n.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// startSystem builds the spec's system: one node, or spec.members window
// members (member j seeded seed+j) behind a gateway at one replica.
func startSystem(sp spec, seed uint64) (*system, error) {
	sys := &system{}
	if sp.members == 0 {
		be, err := newBackend(sp, sp.n, sp.shards, seed)
		if err != nil {
			return nil, err
		}
		sys.nodes = []*node{startNode(be)}
		sys.front = sys.nodes[0].srv.URL
		return sys, nil
	}
	urls := make([]string, sp.members)
	for j := range urls {
		be, err := newBackend(sp, sp.n, sp.shards, seed+uint64(j))
		if err != nil {
			sys.close()
			return nil, err
		}
		nd := startNode(be)
		sys.nodes = append(sys.nodes, nd)
		urls[j] = nd.srv.URL
	}
	g, err := cluster.New(cluster.Config{Members: urls})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.gateway = httptest.NewServer(g.Handler())
	sys.front = sys.gateway.URL
	return sys, nil
}

// close stops the listeners and the engines and drops every connection.
func (s *system) close() {
	if s.gateway != nil {
		s.gateway.Close()
	}
	for _, nd := range s.nodes {
		nd.srv.Close()
		nd.be.Close()
	}
	server.DefaultTransport.CloseIdleConnections()
}

// conn is a client pinned to a single TCP connection: the benchmark's
// load arrives over exactly one ingest and one query connection.
type conn struct {
	*server.Client
	tr *http.Transport
}

func dial(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{Client: &server.Client{Base: base, HTTPClient: &http.Client{Transport: tr}, NoRetry: true}, tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// get fetches a path and returns the raw body of a 200 response.
func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.HTTPClient.Get(c.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// referenceResults feeds the whole stream to an in-process engine of the
// same kind, configuration and seed through one producer, and returns the
// bytes its /results?fresh=1 must equal: the neighbourhoods encoded
// exactly as fewwd encodes them.
func referenceResults(sp spec, ws *workStream, seed uint64) ([]byte, error) {
	be, err := newBackend(sp, sp.n, sp.shards, seed)
	if err != nil {
		return nil, err
	}
	defer be.Close()
	const chunk = 8192
	for lo := 0; lo < ws.total; lo += chunk {
		if err := be.Ingest(ws.slice(lo, min(lo+chunk, ws.total))); err != nil {
			return nil, fmt.Errorf("reference engine: %w", err)
		}
	}
	ans := be.Results(true)
	out := make([]server.NeighbourhoodJSON, len(ans.Neighbourhoods))
	for i, nb := range ans.Neighbourhoods {
		out[i] = server.NeighbourhoodJSON{Vertex: nb.A, Size: nb.Size(), Witnesses: nb.Witnesses}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
