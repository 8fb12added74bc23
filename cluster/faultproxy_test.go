package cluster

// The fault-injection harness: an in-process TCP proxy that sits between
// a client (usually the gateway) and one member node and injects the
// failures a real network serves up — connection resets mid-request,
// latency, stalls, and blackholes — on demand and deterministically.
// The replication, reconciler, and client-retry tests drive it; future
// chaos tests can reuse it as-is.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Proxy forwarding modes.  The mode is consulted before every forwarded
// chunk, not per connection, so already-open (pooled, keep-alive)
// connections feel a mode change on their next byte.
const (
	proxyPass      = iota // forward everything
	proxyLatency          // sleep latency before each chunk
	proxyStall            // hold every chunk (and stop reading: backpressure) until the mode changes
	proxyBlackhole        // swallow chunks silently: data vanishes, responses never come
)

// faultProxy is a TCP proxy wrapping one backend address.
type faultProxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	mode    int
	latency time.Duration
	// Connection-reset injection on the client->server direction: after
	// budget more bytes are forwarded, the client connection is reset
	// (RST, via SetLinger(0)) — the budget boundary is exact, so a test
	// can cut a request body at a chosen byte.  -1 means disarmed.
	budget  int64
	armWith int64 // re-arm value for the next connection (-1 when once-only)
	resets  int
	closed  bool
	conns   []net.Conn
}

// newFaultProxy starts a proxy in front of target ("host:port").
func newFaultProxy(t *testing.T, target string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, target: target, budget: -1, armWith: -1}
	t.Cleanup(p.Close)
	go p.acceptLoop()
	return p
}

// URL returns the proxy's HTTP base URL.
func (p *faultProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *faultProxy) setMode(mode int, latency time.Duration) {
	p.mu.Lock()
	p.mode, p.latency = mode, latency
	p.mu.Unlock()
}

func (p *faultProxy) pass()                      { p.setMode(proxyPass, 0) }
func (p *faultProxy) stall()                     { p.setMode(proxyStall, 0) }
func (p *faultProxy) blackhole()                 { p.setMode(proxyBlackhole, 0) }
func (p *faultProxy) slow(latency time.Duration) { p.setMode(proxyLatency, latency) }

// resetClientToServerAfter arms reset injection: each connection
// forwards at most n more client->server bytes, then is reset.  With
// once, only the first reset fires and later connections pass — the
// shape of a transient network blip.
func (p *faultProxy) resetClientToServerAfter(n int64, once bool) {
	p.mu.Lock()
	p.budget = n
	if once {
		p.armWith = -1
	} else {
		p.armWith = n
	}
	p.mu.Unlock()
}

// backendConns reports how many connections the proxy has opened to its
// target: one per client connection it accepted.
func (p *faultProxy) backendConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns) / 2
}

// resetCount reports how many connections the proxy has reset.
func (p *faultProxy) resetCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resets
}

func (p *faultProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := p.conns
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (p *faultProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		serverC, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			serverC.Close()
			return
		}
		p.conns = append(p.conns, client, serverC)
		p.mu.Unlock()
		go p.pump(client, serverC, client, true)
		go p.pump(client, serverC, serverC, false)
	}
}

// pump copies one direction (src is client when c2s) chunk by chunk,
// consulting the mode before each forward.
func (p *faultProxy) pump(client, serverC, src net.Conn, c2s bool) {
	dst := serverC
	if !c2s {
		dst = client
	}
	buf := make([]byte, 1024)
	for {
		n, err := src.Read(buf)
		if n > 0 && !p.deliver(client, dst, buf[:n], c2s) {
			return
		}
		if err != nil {
			// Propagate the half-close so the peer sees EOF rather than a
			// wedged connection.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// deliver forwards one chunk under the current mode, reporting whether
// the pump should continue.
func (p *faultProxy) deliver(client, dst net.Conn, chunk []byte, c2s bool) bool {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return false
		}
		mode, latency := p.mode, p.latency
		p.mu.Unlock()
		switch mode {
		case proxyStall:
			// Hold the chunk; holding also stops reads from src, so the
			// sender's writes eventually block — real backpressure.
			time.Sleep(2 * time.Millisecond)
			continue
		case proxyBlackhole:
			return true // swallowed
		case proxyLatency:
			time.Sleep(latency)
		}
		break
	}
	if c2s {
		p.mu.Lock()
		if p.budget >= 0 {
			if int64(len(chunk)) >= p.budget {
				// Budget exhausted inside this chunk: forward exactly the
				// remaining bytes, then reset the client connection.  The
				// partial forward makes the cut byte-exact; the RST (linger 0)
				// is what a killed process or middlebox produces.
				keep := chunk[:p.budget]
				p.resets++
				p.budget = p.armWith
				p.mu.Unlock()
				if len(keep) > 0 {
					dst.Write(keep)
				}
				if tc, ok := client.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
				client.Close()
				dst.Close()
				return false
			}
			p.budget -= int64(len(chunk))
		}
		p.mu.Unlock()
	}
	_, err := dst.Write(chunk)
	return err == nil
}

// --- harness self-tests -------------------------------------------------

// echoBackend answers every request with its body length.
func echoBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, "got %d", n)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func proxyClient(timeout time.Duration) *http.Client {
	// A private transport per test: the shared pool must not hand a test
	// a connection opened under another test's fault mode.
	return &http.Client{Timeout: timeout, Transport: &http.Transport{}}
}

func TestFaultProxyPassThrough(t *testing.T) {
	ts := echoBackend(t)
	p := newFaultProxy(t, ts.Listener.Addr().String())
	cl := proxyClient(5 * time.Second)
	resp, err := cl.Post(p.URL()+"/x", "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "got 5" {
		t.Fatalf("pass-through echoed %q, want %q", body, "got 5")
	}
}

func TestFaultProxyLatency(t *testing.T) {
	ts := echoBackend(t)
	p := newFaultProxy(t, ts.Listener.Addr().String())
	p.slow(50 * time.Millisecond)
	cl := proxyClient(5 * time.Second)
	start := time.Now()
	resp, err := cl.Get(p.URL() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Request and response chunks each pay the latency at least once.
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("latency mode round trip took %v, want >= 100ms", d)
	}
}

func TestFaultProxyStallThenRelease(t *testing.T) {
	ts := echoBackend(t)
	p := newFaultProxy(t, ts.Listener.Addr().String())
	p.stall()
	done := make(chan error, 1)
	cl := proxyClient(10 * time.Second)
	go func() {
		resp, err := cl.Get(p.URL() + "/x")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("request finished during stall (err=%v)", err)
	case <-time.After(150 * time.Millisecond):
	}
	p.pass()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("request failed after stall release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request still stuck after stall release")
	}
}

func TestFaultProxyBlackhole(t *testing.T) {
	ts := echoBackend(t)
	p := newFaultProxy(t, ts.Listener.Addr().String())
	p.blackhole()
	cl := proxyClient(200 * time.Millisecond)
	if _, err := cl.Get(p.URL() + "/x"); err == nil {
		t.Fatal("blackholed request succeeded, want timeout")
	}
}

func TestFaultProxyReset(t *testing.T) {
	ts := echoBackend(t)
	p := newFaultProxy(t, ts.Listener.Addr().String())
	p.resetClientToServerAfter(64, true) // cut inside the request
	cl := proxyClient(5 * time.Second)
	big := strings.Repeat("x", 1<<16)
	if _, err := cl.Post(p.URL()+"/x", "text/plain", strings.NewReader(big)); err == nil {
		t.Fatal("reset-injected POST succeeded, want connection error")
	}
	if got := p.resetCount(); got != 1 {
		t.Fatalf("resetCount = %d, want 1", got)
	}
	// once: the retry path is clean.
	resp, err := cl.Post(p.URL()+"/x", "text/plain", strings.NewReader("ok"))
	if err != nil {
		t.Fatalf("post-reset request failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := p.resetCount(); got != 1 {
		t.Fatalf("resetCount after once-reset = %d, want 1", got)
	}
}
