package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

// node is one in-process nbserve instance on a loopback listener.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when Serve returns
}

func startNode(cfg server.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	n := &node{
		srv:    server.New(cfg),
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx) // a timeout leaves only stuck handlers, which Close below drains
	<-n.served
	n.srv.Close()
}

// cluster is the node layout of one workload: a front node the clients
// talk to, plus two worker nodes when the front node coordinates sweeps.
type cluster struct {
	front   *node
	workers []*node
	// coordClient is the coordinator's shard-dispatch client, closed with
	// the cluster so no idle connection outlives it.
	coordClient *http.Client
}

func startCluster(w *workload) (*cluster, error) {
	c := &cluster{}
	cfg := server.Config{Workers: 2}
	if w.cluster {
		var urls []string
		for i := 0; i < 2; i++ {
			wn, err := startNode(server.Config{Workers: 1})
			if err != nil {
				c.close()
				return nil, err
			}
			c.workers = append(c.workers, wn)
			urls = append(urls, wn.url)
		}
		c.coordClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
		cfg.Coordinator = &server.CoordinatorConfig{Workers: urls, ShardConcurrency: 1, Client: c.coordClient}
	}
	front, err := startNode(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = front
	return c, nil
}

func (c *cluster) nodes() []*node {
	var out []*node
	if c.front != nil {
		out = append(out, c.front)
	}
	return append(out, c.workers...)
}

func (c *cluster) close() {
	for _, n := range c.nodes() {
		n.close()
	}
	if c.coordClient != nil {
		c.coordClient.CloseIdleConnections()
	}
}

// newClient returns the benchmark's HTTP client: at most two keep-alive
// connections per node, so two closed-loop clients reuse theirs.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// outcome is one completed request as the client saw it.
type outcome struct {
	index   int
	class   string
	latency time.Duration
	cache   string // the POST's X-Nbserve-Cache header: hit | miss | batch
	err     error
	body    []byte
}

// do sends one request and waits for its answer. A sweep is submitted to
// /v1/verify/sweep and followed on its SSE stream until the terminal done
// event; its latency runs from submit to that event.
func do(ctx context.Context, hc *http.Client, base string, r *request) outcome {
	start := time.Now()
	body, cache, err := roundTrip(ctx, hc, http.MethodPost, base+r.Path, r.Body)
	if err == nil && r.Path == "/v1/verify/sweep" {
		body, err = followSweep(ctx, hc, base, body)
	}
	o := outcome{class: r.Class, latency: time.Since(start), cache: cache, err: err, body: body}
	if o.err == nil {
		o.err = check(r, body)
	}
	return o
}

func roundTrip(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get("X-Nbserve-Cache"), nil
}

// followSweep reads the job's SSE stream up to the terminal done event and
// returns the final verify report.
func followSweep(ctx context.Context, hc *http.Client, base string, accepted []byte) ([]byte, error) {
	var acc api.SweepAccepted
	if err := json.Unmarshal(accepted, &acc); err != nil {
		return nil, fmt.Errorf("decode sweep acceptance: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+acc.EventsURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var st api.SweepStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return nil, fmt.Errorf("decode done event: %w", err)
			}
			if st.State != "done" {
				return nil, fmt.Errorf("sweep %s ended %s: %s", st.JobID, st.State, st.Error)
			}
			return st.Result, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read sweep events: %w", err)
	}
	return nil, errors.New("sweep event stream ended without a done event")
}

// window is one measured closed-loop run: every outcome in completion
// order, and the wall time from the first send until the last client
// finished its in-flight request.
type window struct {
	outcomes []outcome
	wall     time.Duration
}

// runWindow drives gen as a closed loop from `clients` goroutines for dur.
// Clients draw stream indices from one counter, so the completed requests
// are exactly the stream prefix [0, len(outcomes)). Requests in flight at
// the deadline finish and count. Response bodies are kept for every
// outcome when keepBodies is set, else only for the first answer of each
// class and for coordinated sweeps (what crossCheck compares), so the
// window's own memory stays out of peak_rss_mb.
func runWindow(hc *http.Client, base string, clients int, dur time.Duration, gen func(int) request, keepBodies bool) *window {
	var next atomic.Int64
	var mu sync.Mutex
	seen := map[string]bool{}
	w := &window{}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := gen(i)
				o := do(context.Background(), hc, base, &r)
				o.index = i
				mu.Lock()
				if !keepBodies && seen[o.class] && !strings.HasPrefix(o.class, "coord-") {
					o.body = nil
				}
				seen[o.class] = seen[o.class] || o.err == nil
				w.outcomes = append(w.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	return w
}

// scrape reads /metrics from every node.
func scrape(hc *http.Client, c *cluster) ([]*server.MetricsSnapshot, error) {
	var out []*server.MetricsSnapshot
	for _, n := range c.nodes() {
		body, _, err := roundTrip(context.Background(), hc, http.MethodGet, n.url+"/metrics", nil)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.url, err)
		}
		var s server.MetricsSnapshot
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, fmt.Errorf("decode %s/metrics: %w", n.url, err)
		}
		out = append(out, &s)
	}
	return out, nil
}

// waitHealthy polls /healthz on every node until it answers.
func waitHealthy(hc *http.Client, c *cluster) error {
	for _, n := range c.nodes() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, _, err := roundTrip(context.Background(), hc, http.MethodGet, n.url+"/healthz", nil)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s never became healthy: %w", n.url, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
