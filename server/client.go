package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"syscall"
	"time"

	"feww"
	"feww/internal/stream"
)

// DefaultTransport is the shared connection pool every zero-HTTPClient
// Client rides.  http.DefaultTransport keeps only two idle connections
// per host (DefaultMaxIdleConnsPerHost), so a gateway scatter-gathering
// over its members — several concurrent requests to the *same* member
// base URL per fan-out — would redial on almost every burst.  This
// transport keeps enough idle connections per host to cover a wide
// fan-out plus concurrent ingest streams, and enough in total for a
// many-member cluster.
var DefaultTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   30 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	ForceAttemptHTTP2:     true,
	MaxIdleConns:          512,
	MaxIdleConnsPerHost:   64,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
}

// defaultHTTPClient is what the zero Client uses instead of
// http.DefaultClient, so sequential and concurrent requests to the same
// host reuse pooled connections rather than redialing.
var defaultHTTPClient = &http.Client{Transport: DefaultTransport}

// Client talks to a fewwd instance (or to a fewwgate gateway, which
// mirrors the fewwd endpoints).  It is what cmd/fewwload, the cluster
// gateway's member fan-out, and the end-to-end tests drive; the zero
// HTTPClient means a shared client over DefaultTransport, whose
// keep-alive pool is tuned for scatter-gather fan-outs (see
// DefaultTransport).
//
// Timeout bounds each request end to end (connect, send, read): a member
// node that hangs mid-response fails the call instead of wedging the
// caller, which is what a scatter-gather fan-out needs.  Requests are
// retried once on connection refused (the dial failed; nothing reached
// the server), and idempotent requests — everything except /ingest —
// also on connection reset.  A reset can strike after the server
// applied part of an ingest, so replaying one could double-apply
// updates; refused cannot.  Retries need a replayable body, which every
// method provides except IngestStream with a non-seekable reader.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient overrides the transport (nil = a shared client over
	// DefaultTransport).
	HTTPClient *http.Client
	// Timeout bounds each request end to end; 0 means no client-side
	// deadline (whatever the transport does).
	Timeout time.Duration
	// NoRetry disables the single automatic retry on connection
	// refused/reset.  The retry is safe — it only fires on errors raised
	// before or while the connection is being (re)established, with a
	// replayable body — but tests exercising failure paths want the
	// first error verbatim.
	NoRetry bool
}

func (c *Client) http() *http.Client {
	base := c.HTTPClient
	if base == nil {
		base = defaultHTTPClient
	}
	if c.Timeout <= 0 {
		return base
	}
	// A shallow copy shares the transport (and its connection pool) while
	// imposing this client's deadline.
	hc := *base
	hc.Timeout = c.Timeout
	return &hc
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// retryable reports whether err is a transport failure worth one more
// attempt.  Connection refused always qualifies: the dial failed, so
// nothing of the request reached an engine.  Connection reset can strike
// *after* the server processed part (or all) of the request, so it only
// qualifies when the request is idempotent — replaying /ingest after a
// reset could double-apply chunks the engine already accepted.
func retryable(err error, idempotent bool) bool {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	return idempotent && errors.Is(err, syscall.ECONNRESET)
}

// do issues one request, retrying once per the retryable policy.
// makeBody returns a fresh body reader per attempt (nil makeBody means a
// bodyless request; a nil *return* means the body cannot be replayed, so
// the original error surfaces instead of a bogus empty-body request);
// contentType is set when non-empty.
func (c *Client) do(method, path, contentType string, idempotent bool, makeBody func() io.Reader) (*http.Response, error) {
	hc := c.http()
	attempt := func(body io.Reader) (*http.Response, error) {
		req, err := http.NewRequest(method, c.url(path), body)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		return hc.Do(req)
	}
	first := io.Reader(nil)
	if makeBody != nil {
		first = makeBody()
	}
	resp, err := attempt(first)
	if err != nil && !c.NoRetry && retryable(err, idempotent) {
		var replay io.Reader
		if makeBody != nil {
			if replay = makeBody(); replay == nil {
				return resp, err // non-replayable body: keep the real error
			}
		}
		resp, err = attempt(replay)
	}
	return resp, err
}

// Ingest encodes a batch of updates in the FEWW binary format and posts
// it to /ingest.  n and m declare the stream's universe sizes (they must
// fit inside the server engine's universe).
func (c *Client) Ingest(n, m int64, ups []feww.Update) (IngestResponse, error) {
	var body bytes.Buffer
	if err := stream.WriteFile(&body, n, m, ups); err != nil {
		return IngestResponse{}, err
	}
	return c.ingest(func() io.Reader { return bytes.NewReader(body.Bytes()) })
}

// IngestStream posts an already encoded FEWW binary stream to /ingest —
// e.g. a file produced by cmd/fewwgen, streamed without decoding.  The
// stream starts at the reader's current position.  A seekable body is
// replayed from that position if a refused connection triggers the
// retry; a non-seekable one cannot be, so the transport error surfaces
// as-is — use Ingest (or seek and re-call) when that matters.
func (c *Client) IngestStream(body io.Reader) (IngestResponse, error) {
	if rs, ok := body.(io.ReadSeeker); ok {
		if pos, err := rs.Seek(0, io.SeekCurrent); err == nil {
			first := true
			return c.ingest(func() io.Reader {
				if !first {
					if _, err := rs.Seek(pos, io.SeekStart); err != nil {
						return nil // rewind failed; do() surfaces the first error
					}
				}
				first = false
				return rs
			})
		}
		// A ReadSeeker whose position cannot be read cannot be replayed
		// reliably; fall through to the single-attempt path.
	}
	one := false
	return c.ingest(func() io.Reader {
		if one {
			return nil // replay impossible; do() surfaces the first error
		}
		one = true
		return body
	})
}

func (c *Client) ingest(makeBody func() io.Reader) (IngestResponse, error) {
	resp, err := c.do(http.MethodPost, "/ingest", "application/octet-stream", false, makeBody)
	if err != nil {
		return IngestResponse{}, err
	}
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return IngestResponse{}, fmt.Errorf("ingest: decoding response (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("ingest rejected (HTTP %d) after %d accepted updates: %s",
			resp.StatusCode, out.Accepted, out.Error)
	}
	return out, nil
}

// Best fetches /best: the published (barrier-free) consistency, which may
// lag the accepted stream by the in-flight batches.
func (c *Client) Best() (BestResponse, error) { return getJSON[BestResponse](c, "/best") }

// BestFresh fetches /best?fresh=1: the strict barrier consistency, exact
// with respect to every update accepted before the request.
func (c *Client) BestFresh() (BestResponse, error) { return getJSON[BestResponse](c, "/best?fresh=1") }

// Results fetches /results (published consistency).
func (c *Client) Results() ([]NeighbourhoodJSON, error) {
	return getJSON[[]NeighbourhoodJSON](c, "/results")
}

// ResultsFresh fetches /results?fresh=1 (barrier consistency).
func (c *Client) ResultsFresh() ([]NeighbourhoodJSON, error) {
	return getJSON[[]NeighbourhoodJSON](c, "/results?fresh=1")
}

// Stats fetches /stats (published consistency).
func (c *Client) Stats() (StatsResponse, error) { return getJSON[StatsResponse](c, "/stats") }

// StatsFresh fetches /stats?fresh=1 (barrier consistency).
func (c *Client) StatsFresh() (StatsResponse, error) {
	return getJSON[StatsResponse](c, "/stats?fresh=1")
}

// Health fetches /healthz.  The response decodes on HTTP 200 (serving)
// and 503 (draining: Serving false) alike; any other status is an error.
// It is the readiness probe a cluster gateway polls for each member.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	return out, c.callJSON(http.MethodGet, "/healthz", nil, &out, http.StatusServiceUnavailable)
}

// Checkpoint asks the server to write its configured checkpoint file.
func (c *Client) Checkpoint() (CheckpointResponse, error) {
	var out CheckpointResponse
	return out, c.callJSON(http.MethodPost, "/checkpoint", nil, &out)
}

// Snapshot streams /snapshot into w and returns the byte count — the
// engine's memory state crossing the network, as in the paper's one-way
// protocols.
func (c *Client) Snapshot(w io.Writer) (int64, error) {
	resp, err := c.call(http.MethodGet, "/snapshot", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return io.Copy(w, resp.Body)
}

// Restore posts snapshot bytes to /restore, replacing the server's
// engine with the snapshot's state — the shipping half of a cluster
// rebalance.  It returns the server's post-restore health, which carries
// the restored engine's kind and universe for verification.
func (c *Client) Restore(snapshot []byte) (HealthResponse, error) {
	var out HealthResponse
	return out, c.callJSON(http.MethodPost, "/restore", func() io.Reader { return bytes.NewReader(snapshot) }, &out)
}

// ShipSnapshot copies this server's engine state into dst: GET
// /snapshot here, POST /restore there — the one whole-state message the
// paper's protocols are built on, and the primitive behind cluster
// rebalance and replica re-seeding.  The snapshot is buffered in memory
// so the restore body is replayable (a refused connection can be
// retried); the buffer is bounded by the donor's engine size.  It
// returns dst's post-restore health for verification plus the snapshot
// byte count.
func (c *Client) ShipSnapshot(dst *Client) (HealthResponse, int64, error) {
	var snap bytes.Buffer
	size, err := c.Snapshot(&snap)
	if err != nil {
		return HealthResponse{}, 0, fmt.Errorf("snapshot from %s: %w", c.Base, err)
	}
	h, err := dst.Restore(snap.Bytes())
	if err != nil {
		return HealthResponse{}, 0, fmt.Errorf("restore into %s: %w", dst.Base, err)
	}
	return h, size, nil
}

func getJSON[T any](c *Client, path string) (T, error) {
	var out T
	return out, c.callJSON(http.MethodGet, path, nil, &out)
}

// call issues an idempotent request (a body, if any, is sent as
// application/octet-stream) and turns any status but 200 and the extra
// accepted ones into an error quoting the start of the response body.
func (c *Client) call(method, path string, makeBody func() io.Reader, accept ...int) (*http.Response, error) {
	contentType := ""
	if makeBody != nil {
		contentType = "application/octet-stream"
	}
	resp, err := c.do(method, path, contentType, true, makeBody)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && !slices.Contains(accept, resp.StatusCode) {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// callJSON is call plus decoding the JSON reply into v.
func (c *Client) callJSON(method, path string, makeBody func() io.Reader, v any, accept ...int) error {
	resp, err := c.call(method, path, makeBody, accept...)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s %s: decoding response (HTTP %d): %w", method, path, resp.StatusCode, err)
	}
	return nil
}
