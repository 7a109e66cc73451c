package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestValidation pins the single enforcement point, endpoint.prepare:
// out-of-range execution parameters that normalize used to pass straight
// into the engines (it only fills zero values, so negatives flowed
// through) are rejected with 400 before a worker sees them. The metrics
// prove rejection happens pre-queue: no job runs for any case.
func TestValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := func() api.Request { return api.Request{N: 2, M: 4, R: 3, Routing: "paper"} }
	cases := []struct {
		name    string
		path    string
		mutate  func(*api.Request)
		wantSub string
	}{
		{"negative trials", "/v1/verify", func(q *api.Request) { q.Trials = -1; q.Mode = "random" }, "trials"},
		{"negative flits", "/v1/sim", func(q *api.Request) { q.Flits = -4; q.Pattern = "shift" }, "flits"},
		{"negative pkts", "/v1/sim", func(q *api.Request) { q.Pkts = -8; q.Pattern = "shift" }, "pkts"},
		{"negative steps", "/v1/worstcase", func(q *api.Request) { q.Steps = -400 }, "steps"},
		{"negative restarts", "/v1/worstcase", func(q *api.Request) { q.Restarts = -8 }, "restarts"},
		{"negative workers", "/v1/verify", func(q *api.Request) { q.Workers = -2; q.Mode = "random" }, "workers"},
		{"negative spray_width", "/v1/verify", func(q *api.Request) { q.Routing = "spray"; q.SprayWidth = -3 }, "spray_width"},
		{"negative max_exhaustive", "/v1/verify", func(q *api.Request) { q.MaxExhaustive = -1 }, "max_exhaustive"},
		{"negative timeout_ms", "/v1/verify", func(q *api.Request) { q.TimeoutMs = -100 }, "timeout_ms"},
		{"negative n", "/v1/verify", func(q *api.Request) { q.N = -2 }, "n must be"},
		{"odd mnt ports", "/v1/verify", func(q *api.Request) {
			*q = api.Request{Topo: "mnt", Ports: 5, Levels: 2, Routing: "mnt-dest-mod"}
		}, "even"},
		// The levels hole: ports=2 makes the per-level multiplier 1, so the
		// host count never grows and requestHosts used to loop q.Levels
		// times — this request would spin the handler for years. The table
		// completing at all is the regression.
		{"mnt levels spin", "/v1/verify", func(q *api.Request) {
			*q = api.Request{Topo: "mnt", Ports: 2, Levels: 1 << 60, Routing: "mnt-dest-mod"}
		}, "levels"},
		{"mnt levels over cap", "/v1/verify", func(q *api.Request) {
			*q = api.Request{Topo: "mnt", Ports: 8, Levels: 100, Routing: "mnt-dest-mod"}
		}, "levels"},
		{"oversized topology", "/v1/verify", func(q *api.Request) {
			*q = api.Request{N: 2000, M: 4, R: 600, Routing: "dest-mod"}
		}, "hosts"},
		{"oversized links", "/v1/verify", func(q *api.Request) {
			// m defaults to n² = 1M top switches: r·(n+m) links explode
			// even though n·r hosts stay modest.
			*q = api.Request{N: 1024, R: 64, Routing: "dest-mod"}
		}, "links"},
		{"unknown verify mode", "/v1/verify", func(q *api.Request) { q.Mode = "heuristic" }, "mode"},
		// The forced-exhaustive hole: 80 hosts → 80! patterns used to start
		// enumerating with only the deadline as a backstop.
		{"forced exhaustive over cap", "/v1/verify", func(q *api.Request) {
			*q = api.Request{N: 8, M: 64, R: 10, Routing: "adaptive", Mode: "exhaustive"}
		}, "max_exhaustive"},
		{"forced exhaustive-parallel over cap", "/v1/verify", func(q *api.Request) {
			*q = api.Request{N: 8, M: 64, R: 10, Routing: "adaptive", Mode: "exhaustive-parallel"}
		}, "max_exhaustive"},
		{"first_blocked exhaustive over cap", "/v1/verify", func(q *api.Request) {
			*q = api.Request{N: 2, M: 4, R: 8, Routing: "paper", Mode: "exhaustive", FirstBlocked: true}
		}, "max_exhaustive"},
		// first_blocked used to be ignored outside mode exhaustive: the full
		// space was swept anyway, under a cache key of its own.
		{"first_blocked exhaustive-parallel", "/v1/verify", func(q *api.Request) {
			q.Routing, q.Mode, q.FirstBlocked = "dest-mod", "exhaustive-parallel", true
		}, `mode "exhaustive-parallel"`},
		{"first_blocked random", "/v1/verify", func(q *api.Request) {
			q.Routing, q.Mode, q.FirstBlocked = "dest-mod", "random", true
		}, `mode "random"`},
		{"first_blocked exact", "/v1/verify", func(q *api.Request) {
			q.Mode, q.FirstBlocked = "exact", true
		}, `mode "exact"`},
		{"first_blocked sweep", "/v1/verify/sweep", func(q *api.Request) {
			q.Routing, q.FirstBlocked = "dest-mod", true
		}, "first_blocked"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := base()
			tc.mutate(&q)
			resp, body := postJSON(t, ts.URL+tc.path, &q)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var er api.ErrorReport
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %s", body)
			}
			if !strings.Contains(er.Error, tc.wantSub) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.wantSub)
			}
		})
	}

	// Every rejection happened before the queue: nothing ran.
	if m := getMetrics(t, ts.URL); m.JobsRun != 0 {
		t.Fatalf("validation let %d jobs run", m.JobsRun)
	}

	// Raising max_exhaustive in the request is the explicit opt-in that
	// keeps forced big sweeps possible.
	q := &api.Request{N: 2, M: 12, R: 3, Routing: "adaptive", Mode: "exhaustive", MaxExhaustive: 6}
	resp, body := postJSON(t, ts.URL+"/v1/verify", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("opt-in exhaustive: status %d: %s", resp.StatusCode, body)
	}

	// first_blocked stays valid in mode auto, which may resolve to the
	// exhaustive engine.
	q = &api.Request{N: 2, M: 4, R: 3, Routing: "greedy-local", FirstBlocked: true}
	resp, body = postJSON(t, ts.URL+"/v1/verify", q)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "exhaustive-first-blocked") {
		t.Fatalf("auto first_blocked: status %d: %s", resp.StatusCode, body)
	}
}

// TestSeedZeroRequestable is the end-to-end regression for the seed hole:
// normalize used to remap seed 0 → 1, making seed 0 unrequestable. Now an
// explicit {"seed": 0} runs with seed 0, caches under its own key, and
// stays distinct from the absent-seed default.
func TestSeedZeroRequestable(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := []byte(`{"n":2,"m":4,"r":2,"routing":"paper","mode":"random","trials":3,"seed":0}`)
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed 0: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Nbserve-Cache"); got != "miss" {
		t.Fatalf("first seed-0 request served from %q", got)
	}

	// Identical seed-0 request: same canonical key, so a cache hit.
	resp, err = http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Nbserve-Cache"); got != "hit" {
		t.Fatalf("repeat seed-0 request served from %q", got)
	}

	// Same request without a seed resolves to the default (1) — a
	// different key, so a miss, proving 0 is no longer folded into 1.
	q := &api.Request{N: 2, M: 4, R: 2, Routing: "paper", Mode: "random", Trials: 3}
	resp, body := postJSON(t, ts.URL+"/v1/verify", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("absent seed: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Nbserve-Cache"); got != "miss" {
		t.Fatalf("absent-seed request shared the seed-0 cache entry (%q)", got)
	}
}
