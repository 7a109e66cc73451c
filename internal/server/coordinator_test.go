package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/store"
)

// newWorkerServer starts a plain nbserve node for a coordinator to
// dispatch shards to.
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	ws := New(Config{Workers: 4, QueueDepth: 64})
	t.Cleanup(ws.Close)
	ts := httptest.NewServer(ws.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func newCoordinator(t *testing.T, cc *CoordinatorConfig, st store.Store) (*Server, *httptest.Server) {
	t.Helper()
	if cc.RetryBackoff == 0 {
		cc.RetryBackoff = time.Millisecond
	}
	s := New(Config{Coordinator: cc, Store: st, ProgressInterval: 2 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postSweep submits q to base's sweep endpoint and returns the 202
// acceptance metadata.
func postSweep(t *testing.T, base string, q *api.Request) *api.SweepAccepted {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/verify/sweep", q)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var acc api.SweepAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatalf("decode acceptance: %v (%s)", err, body)
	}
	return &acc
}

// waitSweep polls the job status endpoint until the job leaves "running".
func waitSweep(t *testing.T, base, jobID string) *api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		var st api.SweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return &st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s still running after 60s", jobID)
	return nil
}

// localVerifyBody computes the single-process reference: the /v1/verify
// response body for q forced through the exhaustive-parallel engine,
// without the trailing newline the HTTP framing appends.
func localVerifyBody(t *testing.T, q api.Request) string {
	t.Helper()
	s := New(Config{Workers: 4, QueueDepth: 16})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q.Mode = "exhaustive-parallel"
	resp, body := postJSON(t, ts.URL+"/v1/verify", &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference verify: %d %s", resp.StatusCode, body)
	}
	return strings.TrimSuffix(string(body), "\n")
}

// TestCoordinatedSweepMatchesLocal is the distributed-parity acceptance
// test: a sweep fanned across two worker nodes must produce a final body
// byte-identical to the in-process exhaustive-parallel verify — for
// blocking and nonblocking networks, at 8 and 9 hosts, under level-1
// sharding and under the deepened partition (more worker slots than
// level-1 shards), where the witness must be re-derived.
func TestCoordinatedSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	wa, wb := newWorkerServer(t), newWorkerServer(t)
	cases := []struct {
		name string
		q    api.Request
		conc int
	}{
		// 8 hosts, blocking (m=2 < n²): 2 workers × 2 slots < 8 shards,
		// so level-1 sharding with worker-reported witnesses.
		{"n8 blocking level1", api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}, 2},
		// Same network, 2 workers × 5 slots > 8 → deepened to 8·7=56
		// two-digit shards; the witness comes from re-derivation.
		{"n8 blocking deep", api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}, 5},
		// 8 hosts, nonblocking (Theorem-1 provisioning m=n²).
		{"n8 nonblocking", api.Request{N: 2, M: 4, R: 4, Routing: "paper"}, 2},
		// 9 hosts: 9! = 362880 patterns across the fleet.
		{"n9 blocking", api.Request{N: 3, M: 3, R: 3, Routing: "dest-mod"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := localVerifyBody(t, tc.q)
			s, ts := newCoordinator(t, &CoordinatorConfig{
				Workers:          []string{wa.URL, wb.URL},
				ShardConcurrency: tc.conc,
			}, nil)
			q := tc.q
			acc := postSweep(t, ts.URL, &q)
			if acc.Workers != 2 {
				t.Fatalf("accepted with %d workers", acc.Workers)
			}
			minShards := 2 * tc.conc
			if acc.Shards < minShards || acc.Shards%1 != 0 {
				t.Fatalf("accepted with %d shards for %d slots", acc.Shards, minShards)
			}
			st := waitSweep(t, ts.URL, acc.JobID)
			if st.State != "done" {
				t.Fatalf("sweep state %s: %s", st.State, st.Error)
			}
			if got := string(st.Result); got != want {
				t.Fatalf("coordinated result differs from local engine:\n got %s\nwant %s", got, want)
			}
			if st.ShardsDone != st.ShardsTotal || st.ShardsTotal != acc.Shards {
				t.Fatalf("finished with %d/%d shards (accepted %d)", st.ShardsDone, st.ShardsTotal, acc.Shards)
			}
			m := getMetrics(t, ts.URL)
			if m.ShardsDispatched < int64(acc.Shards) {
				t.Fatalf("dispatched %d shards, want >= %d", m.ShardsDispatched, acc.Shards)
			}
			// The sweep fills the verify cache: the same point on /v1/verify
			// is a hit with the identical body.
			q2 := tc.q
			q2.Mode = "exhaustive-parallel"
			resp, body := postJSON(t, ts.URL+"/v1/verify", &q2)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Nbserve-Cache") != "hit" {
				t.Fatalf("verify after sweep: %d cache=%s", resp.StatusCode, resp.Header.Get("X-Nbserve-Cache"))
			}
			if got := strings.TrimSuffix(string(body), "\n"); got != want {
				t.Fatalf("verify served %s, sweep computed %s", got, want)
			}
			_ = s
		})
	}
}

// TestCoordinatedSweepWorkerKill kills one of two workers after its first
// shard: every shard routed to it afterwards fails, is retried with
// backoff, and is reassigned to the surviving worker. The sweep must
// still complete with the byte-identical result.
func TestCoordinatedSweepWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	alive := newWorkerServer(t)

	dying := New(Config{Workers: 4, QueueDepth: 64})
	t.Cleanup(dying.Close)
	handler := dying.Handler()
	var served atomic.Int64
	dyingTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			http.Error(w, "worker killed", http.StatusInternalServerError)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(dyingTS.Close)

	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	want := localVerifyBody(t, q)
	s, ts := newCoordinator(t, &CoordinatorConfig{
		Workers:          []string{alive.URL, dyingTS.URL},
		ShardConcurrency: 2,
	}, nil)
	acc := postSweep(t, ts.URL, &q)
	st := waitSweep(t, ts.URL, acc.JobID)
	if st.State != "done" {
		t.Fatalf("sweep state %s: %s", st.State, st.Error)
	}
	if got := string(st.Result); got != want {
		t.Fatalf("result after worker kill differs:\n got %s\nwant %s", got, want)
	}
	m := getMetrics(t, ts.URL)
	if m.ShardsRetried == 0 {
		t.Fatal("worker kill produced no retries")
	}
	if s.met.shardsDispatched.Load() <= int64(acc.Shards) {
		t.Fatalf("dispatched %d with retries, want > %d", m.ShardsDispatched, acc.Shards)
	}
}

// TestCoordinatedSweepHangingWorker: a worker that accepts shard requests
// and never answers costs each of its shards one ShardTimeout; the shard
// is then retried on the healthy worker, the result stays byte-identical
// to the local engine, and the job finishes within the retry budget of
// (ShardRetries+1)·ShardTimeout plus the backoffs.
func TestCoordinatedSweepHangingWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	healthy := newWorkerServer(t)
	var hung atomic.Int64
	release := make(chan struct{})
	hanging := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hung.Add(1)
		select {
		case <-r.Context().Done(): // the coordinator gave up on the shard
		case <-release:
		}
	}))
	t.Cleanup(hanging.Close)
	t.Cleanup(func() { close(release) }) // runs first: Close waits for handlers

	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	want := localVerifyBody(t, q)
	const timeout = 500 * time.Millisecond
	cc := &CoordinatorConfig{
		Workers:          []string{hanging.URL, healthy.URL},
		ShardConcurrency: 2,
		ShardTimeout:     timeout,
	}
	_, ts := newCoordinator(t, cc, nil)
	start := time.Now()
	acc := postSweep(t, ts.URL, &q)
	st := waitSweep(t, ts.URL, acc.JobID)
	elapsed := time.Since(start)
	if st.State != "done" {
		t.Fatalf("sweep state %s: %s", st.State, st.Error)
	}
	if got := string(st.Result); got != want {
		t.Fatalf("result with a hanging worker differs:\n got %s\nwant %s", got, want)
	}
	if hung.Load() == 0 {
		t.Fatal("no shard was sent to the hanging worker")
	}
	if m := getMetrics(t, ts.URL); m.ShardsRetried == 0 {
		t.Fatal("hung shards were not retried")
	}
	budget := time.Duration(cc.ShardRetries+1) * timeout
	for i := 0; i < cc.ShardRetries; i++ {
		budget += cc.RetryBackoff << i
	}
	if elapsed > budget {
		t.Fatalf("sweep took %v, want within %v", elapsed, budget)
	}
}

// TestCoordinatedSweepResume proves checkpoint resume across coordinator
// restarts: a first coordinator whose worker fails every shard with
// leading digit >= 2 checkpoints shards 0 and 1, then fails the sweep;
// a second coordinator sharing the same store resumes those two shards
// from checkpoints, dispatches only the remaining six, and finishes with
// the byte-identical result.
func TestCoordinatedSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	shared := store.NewMemory(1024)

	worker := New(Config{Workers: 4, QueueDepth: 64})
	t.Cleanup(worker.Close)
	handler := worker.Handler()
	partial := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var sq api.Request
		if json.Unmarshal(body, &sq) == nil && len(sq.ShardPrefix) > 0 && sq.ShardPrefix[0] >= 2 {
			http.Error(w, "injected crash", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(partial.Close)

	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	want := localVerifyBody(t, q)

	// First run: serial dispatch (one worker, one slot) checkpoints shards
	// 0 and 1, then dies retrying shard 2.
	_, ts1 := newCoordinator(t, &CoordinatorConfig{
		Workers:          []string{partial.URL},
		ShardConcurrency: 1,
		ShardRetries:     1,
	}, shared)
	acc1 := postSweep(t, ts1.URL, &q)
	if acc1.Resumed != 0 {
		t.Fatalf("fresh sweep resumed %d shards", acc1.Resumed)
	}
	st1 := waitSweep(t, ts1.URL, acc1.JobID)
	if st1.State != "failed" {
		t.Fatalf("partial sweep state %s, want failed", st1.State)
	}
	if st1.ShardsDone != 2 {
		t.Fatalf("partial sweep completed %d shards, want 2", st1.ShardsDone)
	}

	// Second run, fresh coordinator over the same store with a healthy
	// worker: resumes the two checkpointed shards.
	_, ts2 := newCoordinator(t, &CoordinatorConfig{
		Workers:          []string{newWorkerServer(t).URL},
		ShardConcurrency: 1,
	}, shared)
	acc2 := postSweep(t, ts2.URL, &q)
	if acc2.Resumed != 2 {
		t.Fatalf("resumed %d shards, want 2", acc2.Resumed)
	}
	st2 := waitSweep(t, ts2.URL, acc2.JobID)
	if st2.State != "done" {
		t.Fatalf("resumed sweep state %s: %s", st2.State, st2.Error)
	}
	if got := string(st2.Result); got != want {
		t.Fatalf("resumed result differs:\n got %s\nwant %s", got, want)
	}
	m, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(m.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	m.Body.Close()
	if snap.ShardsResumed != 2 {
		t.Fatalf("shards_resumed = %d, want 2", snap.ShardsResumed)
	}
	if snap.ShardsDispatched != int64(acc2.Shards-2) {
		t.Fatalf("dispatched %d, want %d (total %d minus 2 resumed)", snap.ShardsDispatched, acc2.Shards-2, acc2.Shards)
	}
}

// sseEvent is one parsed server-sent event from the job stream.
type sseEvent struct {
	event  string
	status api.SweepStatus
}

// readSSE consumes base/v1/jobs/{id}/events until the stream closes,
// returning every event in order.
func readSSE(t *testing.T, base, jobID string) []sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev := sseEvent{event: name}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.status); err != nil {
				t.Fatalf("decode %s event: %v", name, err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestSweepSSEProgress drives a local (non-coordinated) sweep and a
// coordinated sweep through the SSE endpoint: every stream must deliver
// monotonically non-decreasing counters and end with exactly one terminal
// `done` event carrying the final result.
func TestSweepSSEProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	t.Run("local", func(t *testing.T) {
		s := New(Config{Workers: 4, QueueDepth: 16, ProgressInterval: time.Millisecond})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		q := api.Request{N: 3, M: 3, R: 3, Routing: "dest-mod"}
		acc := postSweep(t, ts.URL, &q)
		verifySSE(t, readSSE(t, ts.URL, acc.JobID), 362880)
	})
	t.Run("coordinated", func(t *testing.T) {
		w := newWorkerServer(t)
		_, ts := newCoordinator(t, &CoordinatorConfig{Workers: []string{w.URL}, ShardConcurrency: 2}, nil)
		q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
		acc := postSweep(t, ts.URL, &q)
		verifySSE(t, readSSE(t, ts.URL, acc.JobID), 40320)
	})
}

// verifySSE asserts the SSE contract on a finished stream: monotonic
// counters, exactly one terminal done event, and a decodable final
// VerifyReport.
func verifySSE(t *testing.T, events []sseEvent, wantTested int64) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	var last api.SweepStatus
	for i, ev := range events {
		st := ev.status
		if st.Tested < last.Tested || st.Blocked < last.Blocked || st.ShardsDone < last.ShardsDone {
			t.Fatalf("event %d went backwards: %+v after %+v", i, st, last)
		}
		if isLast := i == len(events)-1; isLast != (ev.event == "done") {
			t.Fatalf("event %d (%s) misplaced: done must be exactly the final event", i, ev.event)
		}
		last = st
	}
	if last.State != "done" || last.Tested != wantTested {
		t.Fatalf("terminal event state=%s tested=%d, want done/%d", last.State, last.Tested, wantTested)
	}
	var rep api.VerifyReport
	if err := json.Unmarshal(last.Result, &rep); err != nil {
		t.Fatalf("terminal result does not decode: %v", err)
	}
	if rep.Method != "exhaustive-parallel" || !rep.Exact {
		t.Fatalf("terminal report method=%s exact=%t", rep.Method, rep.Exact)
	}
}

// TestSweepEndpointValidation: the sweep endpoint enforces the same
// validation as a forced exhaustive verify, and the job endpoints 404 on
// unknown ids.
func TestSweepEndpointValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 80 hosts: the factorial guard must refuse the sweep up front.
	q := api.Request{N: 4, M: 16, R: 20, Routing: "adaptive"}
	resp, body := postJSON(t, ts.URL+"/v1/verify/sweep", &q)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "max_exhaustive") {
		t.Fatalf("oversized sweep: %d %s", resp.StatusCode, body)
	}

	for _, url := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestSweepDedupAndCache: a second identical sweep while the first runs
// follows the same job id; once finished, a third request is served as a
// pre-completed job from the store.
func TestSweepDedupAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	// Gate the worker so the first sweep is deterministically still
	// running when the duplicate request arrives.
	worker := New(Config{Workers: 4, QueueDepth: 64})
	t.Cleanup(worker.Close)
	handler := worker.Handler()
	gate := make(chan struct{})
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(gated.Close)
	_, ts := newCoordinator(t, &CoordinatorConfig{Workers: []string{gated.URL}, ShardConcurrency: 2}, nil)

	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	acc1 := postSweep(t, ts.URL, &q)
	acc2 := postSweep(t, ts.URL, &q)
	close(gate)
	if acc2.JobID != acc1.JobID {
		t.Fatalf("identical running sweep not deduplicated: %s vs %s", acc2.JobID, acc1.JobID)
	}
	st := waitSweep(t, ts.URL, acc1.JobID)
	if st.State != "done" {
		t.Fatalf("sweep state %s: %s", st.State, st.Error)
	}
	acc3 := postSweep(t, ts.URL, &q)
	if acc3.JobID == acc1.JobID {
		t.Fatal("finished sweep id reused")
	}
	st3 := waitSweep(t, ts.URL, acc3.JobID)
	if st3.State != "done" || string(st3.Result) != string(st.Result) {
		t.Fatalf("store-served sweep differs: %s", st3.Result)
	}
	m := getMetrics(t, ts.URL)
	if m.Endpoints[sweepOp].CacheHits == 0 {
		t.Fatal("finished sweep not served from the store")
	}
}

// TestMetricsConformance: after a mixed load — completed jobs, queue
// overflow 429s, and a queued job expiring to 504 — the queue gauge must
// return to zero, and the metrics payload must carry the coordinator
// counters and the sweep endpoint entry.
func TestMetricsConformance(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A normal job completes first.
	ok := api.Request{N: 2, M: 4, R: 2, Routing: "paper"}
	if resp, body := postJSON(t, ts.URL+"/v1/verify", &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline verify: %d %s", resp.StatusCode, body)
	}

	// Plug the single worker; a short-deadline request expires while
	// queued (504), and with the queue then full the next request is
	// rejected (429).
	release := plugQueue(t, s, 1)
	expired := api.Request{N: 2, M: 4, R: 2, Routing: "dest-mod", TimeoutMs: 60, NoCache: true}
	if resp, body := postJSON(t, ts.URL+"/v1/verify", &expired); resp.StatusCode != http.StatusGatewayTimeout {
		release()
		t.Fatalf("queued-expiry: %d %s", resp.StatusCode, body)
	}
	rejected := api.Request{N: 2, M: 4, R: 3, Routing: "dest-mod", NoCache: true}
	if resp, body := postJSON(t, ts.URL+"/v1/verify", &rejected); resp.StatusCode != http.StatusTooManyRequests {
		release()
		t.Fatalf("overflow: %d %s", resp.StatusCode, body)
	}
	release()

	deadline := time.Now().Add(5 * time.Second)
	var m *MetricsSnapshot
	for {
		m = getMetrics(t, ts.URL)
		if m.QueueDepth == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue_depth = %d after load drained", m.QueueDepth)
	}
	if m.JobsRejected == 0 {
		t.Fatal("429 not counted in jobs_rejected")
	}
	if m.ShardsDispatched != 0 || m.ShardsRetried != 0 || m.ShardsResumed != 0 {
		t.Fatalf("idle coordinator counters nonzero: %d/%d/%d", m.ShardsDispatched, m.ShardsRetried, m.ShardsResumed)
	}
	if _, ok := m.Endpoints[sweepOp]; !ok {
		t.Fatalf("metrics missing %q endpoint entry", sweepOp)
	}
	if _, ok := m.Endpoints["verify/shard"]; !ok {
		t.Fatal("metrics missing verify/shard endpoint entry")
	}

	// The wire payload spells the counters out by name.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, field := range []string{"shards_dispatched", "shards_retried", "shards_resumed", "queue_depth"} {
		if !bytes.Contains(raw, []byte(fmt.Sprintf("%q", field))) {
			t.Fatalf("metrics payload missing %q: %s", field, raw)
		}
	}
}

// newLyingWorker starts a worker node that passes each of its successful
// shard reports through lie before answering.
func newLyingWorker(t *testing.T, lie func(rep *api.ShardReport)) *httptest.Server {
	t.Helper()
	ws := New(Config{Workers: 4, QueueDepth: 64})
	t.Cleanup(ws.Close)
	handler := ws.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var rep api.ShardReport
		if r.URL.Path == "/v1/verify/shard" && rec.Code == http.StatusOK && json.Unmarshal(body, &rep) == nil {
			lie(&rep)
			body, _ = json.Marshal(&rep)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCoordinatedSweepRejectsInflatedCounts: a worker whose reports
// inflate Tested never reaches the certificate. Next to an honest worker
// its reports count as failed attempts — retried on the honest worker,
// never checkpointed — and the sweep still ends byte-identical to the
// local engine. With only liars the sweep fails, for prefix and sym plans
// alike.
func TestCoordinatedSweepRejectsInflatedCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	honest, liar := newWorkerServer(t), newLyingWorker(t, func(rep *api.ShardReport) { rep.Tested++ })
	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	want := localVerifyBody(t, q)

	shared := store.NewMemory(1024)
	_, ts := newCoordinator(t, &CoordinatorConfig{
		Workers:          []string{liar.URL, honest.URL},
		ShardConcurrency: 2,
	}, shared)
	sq := q
	acc := postSweep(t, ts.URL, &sq)
	st := waitSweep(t, ts.URL, acc.JobID)
	if st.State != "done" {
		t.Fatalf("sweep state %s: %s", st.State, st.Error)
	}
	if got := string(st.Result); got != want {
		t.Fatalf("result with a lying worker differs:\n got %s\nwant %s", got, want)
	}
	if m := getMetrics(t, ts.URL); m.ShardsRetried == 0 {
		t.Fatal("inflated reports were accepted without a retry")
	}
	key := sweepKey(q)
	for d := 0; d < 8; d++ {
		body, ok := shared.Get(store.CheckpointKey(key, api.ShardID([]int{d})))
		if !ok {
			t.Fatalf("shard %d not checkpointed", d)
		}
		var rep api.ShardReport
		if err := json.Unmarshal(body, &rep); err != nil || rep.Tested != 5040 {
			t.Fatalf("shard %d checkpoint %s (err %v), want 7! tested", d, body, err)
		}
	}

	for _, lq := range []api.Request{q, {N: 2, M: 2, R: 4, Routing: "spray", SymReduce: true}} {
		_, ts := newCoordinator(t, &CoordinatorConfig{
			Workers:          []string{liar.URL},
			ShardConcurrency: 2,
			ShardRetries:     1,
		}, nil)
		acc := postSweep(t, ts.URL, &lq)
		st := waitSweep(t, ts.URL, acc.JobID)
		if st.State != "failed" || !strings.Contains(st.Error, "tested") {
			t.Fatalf("sym=%v: liar-only sweep state %s (%q), want failed on the tested count", lq.SymReduce, st.State, st.Error)
		}
	}
}

// TestCoordinatedSweepReplaysWitness: the coordinator keeps a level-1
// shard's witness only if it lies in the shard's prefix and replays as
// contended. Shard 0 always goes to the liar (the lowest free worker), and
// its counts stay honest. A witness swapped for a contention-free pattern
// or for a blocking pattern of another shard is re-derived, so the result
// stays byte-identical to the local engine; a liar that claims a
// non-blocking shard blocks fails the sweep instead of certifying it.
func TestCoordinatedSweepReplaysWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	blocking := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	tq := blocking
	tq.Mode = "exhaustive-parallel"
	if err := verifyEndpoint.prepare(&tq); err != nil {
		t.Fatal(err)
	}
	tg, err := buildTarget(&tq)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := analysis.Sweep(context.Background(), tg.router, tg.hosts, analysis.Spec{Prefix: []int{1}, FirstBlocked: true})
	if err != nil || other.FirstBlocked == nil {
		t.Fatalf("no blocked pattern in shard 1: %v", err)
	}
	contentionFree := permutation.Identity(tg.hosts).String()

	for _, tc := range []struct {
		name    string
		q       api.Request
		witness string
		claim   bool // also claim a blocked pattern
	}{
		{"contention-free witness", blocking, contentionFree, false},
		{"out-of-prefix witness", blocking, other.FirstBlocked.String(), false},
		{"non-blocking shard", api.Request{N: 2, M: 4, R: 4, Routing: "paper"}, contentionFree, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lied atomic.Bool
			liar := newLyingWorker(t, func(rep *api.ShardReport) {
				if rep.Shard != "0" {
					return
				}
				if tc.claim {
					rep.Blocked = 1
				}
				if rep.Blocked > 0 {
					rep.FirstBlocked = tc.witness
					lied.Store(true)
				}
			})
			_, ts := newCoordinator(t, &CoordinatorConfig{
				Workers:          []string{liar.URL, newWorkerServer(t).URL},
				ShardConcurrency: 2,
			}, nil)
			sq := tc.q
			st := waitSweep(t, ts.URL, postSweep(t, ts.URL, &sq).JobID)
			if !lied.Load() {
				t.Fatal("the liar never answered a blocked shard 0")
			}
			if tc.claim {
				if st.State != "failed" || !strings.Contains(st.Error, "re-derivation found no blocked pattern") {
					t.Fatalf("sweep state %s (%q), want failed on the re-derivation", st.State, st.Error)
				}
				return
			}
			if st.State != "done" {
				t.Fatalf("sweep state %s: %s", st.State, st.Error)
			}
			if got, want := string(st.Result), localVerifyBody(t, tc.q); got != want {
				t.Fatalf("result with a lying witness differs:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCoordinatedSweepLemma1Audit: workers that hide every blocked
// pattern of a single-path routing, with honest tested counts, pass every
// count check; Lemma 1 on the coordinator convicts the merge instead of
// certifying it.
func TestCoordinatedSweepLemma1Audit(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	liar := newLyingWorker(t, func(rep *api.ShardReport) { rep.Blocked, rep.FirstBlocked = 0, "" })
	_, ts := newCoordinator(t, &CoordinatorConfig{Workers: []string{liar.URL}, ShardConcurrency: 2}, nil)
	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	st := waitSweep(t, ts.URL, postSweep(t, ts.URL, &q).JobID)
	if st.State != "failed" || !strings.Contains(st.Error, "Lemma 1") {
		t.Fatalf("sweep state %s (%q), want failed on the Lemma-1 audit", st.State, st.Error)
	}
}

// TestCoordinatedSweepRecomputesBadCheckpoint: a checkpoint whose counts
// cannot be right is not resumed; its shard is swept again and the
// checkpoint overwritten with the true counts.
func TestCoordinatedSweepRecomputesBadCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweeps in -short")
	}
	q := api.Request{N: 2, M: 2, R: 4, Routing: "dest-mod"}
	want := localVerifyBody(t, q)
	shared := store.NewMemory(1024)
	ckpt := store.CheckpointKey(sweepKey(q), api.ShardID([]int{0}))
	bad, _ := json.Marshal(&api.ShardReport{Hosts: 8, Shard: "0", Tested: 5041, Blocked: 1})
	shared.Put(ckpt, bad)

	_, ts := newCoordinator(t, &CoordinatorConfig{Workers: []string{newWorkerServer(t).URL}}, shared)
	sq := q
	acc := postSweep(t, ts.URL, &sq)
	if acc.Resumed != 0 {
		t.Fatalf("resumed %d shards from an implausible checkpoint", acc.Resumed)
	}
	st := waitSweep(t, ts.URL, acc.JobID)
	if st.State != "done" || string(st.Result) != want {
		t.Fatalf("sweep state %s (%s), result:\n got %s\nwant %s", st.State, st.Error, st.Result, want)
	}
	body, _ := shared.Get(ckpt)
	var rep api.ShardReport
	if err := json.Unmarshal(body, &rep); err != nil || rep.Tested != 5040 {
		t.Fatalf("shard 0 checkpoint %s (err %v), want the recomputed 7! tested", body, err)
	}
}

// sweepKey is the canonical key /v1/verify/sweep files q's result and
// checkpoints under.
func sweepKey(q api.Request) string {
	normalize(&q)
	q.Mode = "exhaustive-parallel"
	return q.CacheKey("verify")
}

// TestCoordinatedSweepRetryPlacement: a failed shard goes back to a
// worker it failed on only once it has failed on every worker; until
// then it waits for a free slot elsewhere, and the shards queued behind
// it still dispatch.
func TestCoordinatedSweepRetryPlacement(t *testing.T) {
	failed := func(ws ...int) map[int]bool {
		m := map[int]bool{}
		for _, w := range ws {
			m[w] = true
		}
		return m
	}
	for _, c := range []struct {
		name     string
		failedOn map[int]bool
		inflight []int
		want     int
	}{
		{"fresh shard takes the lowest free worker", failed(), []int{0, 0, 0}, 0},
		{"fresh shard skips a full worker", failed(), []int{2, 1, 0}, 1},
		{"failed shard avoids its failed worker", failed(0), []int{0, 2, 1}, 2},
		{"failed shard waits while the others are busy", failed(0), []int{0, 2, 2}, -1},
		{"failed on two, the third busy", failed(0, 1), []int{0, 0, 2}, -1},
		{"failed on every worker: any free slot", failed(0, 1, 2), []int{2, 1, 2}, 1},
		{"failed on every worker, all full", failed(0, 1, 2), []int{2, 2, 2}, -1},
		{"single worker retries itself", failed(0), []int{1}, 0},
	} {
		if got := placeShard(c.failedOn, c.inflight, 2); got != c.want {
			t.Errorf("%s: placeShard(%v, %v) = %d, want %d", c.name, c.failedOn, c.inflight, got, c.want)
		}
	}

	// Worker 0 lied about shard a; worker 1 is busy. a waits; b and c
	// behind it take worker 0's free slots in queue order.
	a := &shardTask{idx: 0, failedOn: failed(0)}
	b := &shardTask{idx: 1, failedOn: failed()}
	c := &shardTask{idx: 2, failedOn: failed()}
	d := &shardTask{idx: 3, failedOn: failed()}
	inflight := []int{0, 2}
	var sent []string
	dispatch := func(t *shardTask, w int) {
		inflight[w]++
		sent = append(sent, fmt.Sprintf("%d@%d", t.idx, w))
	}
	waiting := assignShards([]*shardTask{a, b, c, d}, inflight, 2, dispatch)
	if got := strings.Join(sent, " "); got != "1@0 2@0" {
		t.Errorf("dispatched %q, want \"1@0 2@0\"", got)
	}
	if len(waiting) != 2 || waiting[0] != a || waiting[1] != d {
		t.Errorf("waiting %v, want shards 0 and 3 in order", waiting)
	}
	// Once worker 1 frees a slot, a goes there.
	inflight[1]--
	sent = nil
	if waiting = assignShards(waiting, inflight, 2, dispatch); len(waiting) != 1 || waiting[0] != d || strings.Join(sent, " ") != "0@1" {
		t.Errorf("after worker 1 freed: dispatched %q, waiting %v", sent, waiting)
	}
}
