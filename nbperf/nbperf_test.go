package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{
		{30, 0, false},
		{41, 0.75, true},
		{150, 0.90, true},
		{190, 0.90, true},
		{210, 0.95, true},
		{990, 0.95, true},
		{1020, 0.99, true},
		{20000, 0.99, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if ok != c.okay || p != c.p {
			t.Errorf("n=%d: got p%g ok=%t, want p%g ok=%t", c.n, p*100, ok, c.p*100, c.okay)
			continue
		}
		if !ok {
			continue
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p*100, beyond)
		}
		// The next rung up must not have enough samples beyond it.
		for i, q := range tailLadder {
			if q == p && i+1 < len(tailLadder) {
				xs := make([]float64, c.n)
				for k := range xs {
					xs[k] = float64(k)
				}
				if above := float64(c.n-1) - quantile(xs, tailLadder[i+1]); above >= minBeyond {
					t.Errorf("n=%d: p%g still has %g samples beyond it", c.n, tailLadder[i+1]*100, above)
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, name: "server.verify", start: 0, end: 100},
		{parent: 0, name: "analysis.sweep", start: 10, end: 40},
		{parent: 1, name: "routing.route_table", start: 15, end: 25},
		{parent: 0, name: "api.encode", start: 50, end: 60},
		{parent: -1, name: "server.sim", start: 100, end: 130},
		{parent: 4, name: "analysis.check", start: 105, end: 110},
	}
	got := selfTimes(spans)
	want := map[string]int64{"server": 60 + 25, "analysis": 20 + 5, "routing": 10, "api": 10}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("self time of %s = %d, want %d", l, got[l], v)
		}
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 130 {
		t.Errorf("self times sum to %d, want the 130 the roots cover", total)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.req = 7
	root := tr.begin("server.x")
	a := tr.begin("topology.build")
	tr.end(a)
	b := tr.begin("analysis.sweep")
	tr.endN(b, 42)
	tr.end(root)
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	if tr.spans[a].parent != root || tr.spans[b].parent != root || tr.spans[root].parent != -1 {
		t.Errorf("parents %d %d %d", tr.spans[root].parent, tr.spans[a].parent, tr.spans[b].parent)
	}
	if tr.spans[b].n != 42 || tr.spans[b].req != 7 {
		t.Errorf("span %+v lost its work count or request id", tr.spans[b])
	}
}

func streamBytes(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(w.gen(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 7, 400), streamBytes(t, w, 7, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, streamBytes(t, w, 8, 400)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// TestStreamIsNormalized pins what the replay relies on: every generated
// request already carries the server's defaults, so its own CacheKey is
// the key the server computes.
func TestStreamIsNormalized(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < 200; i++ {
			r := w.gen(3, i)
			if r.Path != "/v1/verify" {
				continue
			}
			var q api.Request
			if err := json.Unmarshal(r.Body, &q); err != nil {
				t.Fatal(err)
			}
			if got, want := q.CacheKey("verify"), server.VerifyCacheKey(q); got != want {
				t.Fatalf("%s request %d: key %q, server key %q", w.name, i, got, want)
			}
		}
	}
}

// TestVerifyMixHitShare checks the stream keeps its repeat share well away
// from one half: the first occurrence of a key is a miss, every repeat of
// a key still resident in a 256-entry LRU is a hit.
func TestVerifyMixHitShare(t *testing.T) {
	const n = 20000
	var lru []string
	hits, singles := 0, 0
	for i := 0; i < n; i++ {
		r := verifyMix(5, i)
		if r.Path == "/v1/verify/batch" {
			continue
		}
		singles++
		key := r.Path + string(r.Body)
		found := -1
		for k, v := range lru {
			if v == key {
				found = k
				break
			}
		}
		if found >= 0 {
			hits++
			lru = append(lru[:found], lru[found+1:]...)
		} else if len(lru) == 256 {
			lru = lru[1:]
		}
		lru = append(lru, key)
	}
	share := float64(hits) / float64(n)
	if share < 0.15 || share > 0.35 {
		t.Errorf("hit share %.3f, want about a quarter", share)
	}
	if distinct := singles - hits; distinct < 4*256 {
		t.Errorf("only %d distinct keys: the LRU never evicts", distinct)
	}
}

func TestCheckVerify(t *testing.T) {
	r := certifyRequest("sweep9") // n=9 dest-mod exhaustive-parallel
	good := api.VerifyReport{
		Network: "ftree(3+3,3)", Hosts: 9, Routing: "dest-mod", Method: "exhaustive-parallel",
		Verdict: "blocking", Exact: true, Tested: 362880, Blocked: 202176, MaxLinkLoad: 2, Witness: sweep9Witness,
	}
	if err := check(&r, mustJSON(good)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(*api.VerifyReport){
		"tested":  func(v *api.VerifyReport) { v.Tested-- },
		"blocked": func(v *api.VerifyReport) { v.Blocked = 0 },
		"verdict": func(v *api.VerifyReport) { v.Verdict = "nonblocking" },
		"witness": func(v *api.VerifyReport) { v.Witness = "0->1 1->0" },
		"exact":   func(v *api.VerifyReport) { v.Exact = false },
	} {
		bad := good
		mutate(&bad)
		if err := check(&r, mustJSON(bad)); err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
}

func TestCheckBatchAndDesign(t *testing.T) {
	var batch request
	for i := 0; batch.Path == ""; i++ {
		if r := verifyMix(1, i); r.Path == "/v1/verify/batch" {
			batch = r
		}
	}
	var b api.BatchRequest
	if err := json.Unmarshal(batch.Body, &b); err != nil {
		t.Fatal(err)
	}
	rep := api.BatchReport{Unique: 2, Deduplicated: 2, JobsRun: 2}
	for _, q := range b.Items {
		vr, err := server.RunVerifyRequest(context.Background(), &q)
		if err != nil {
			t.Fatal(err)
		}
		rep.Items = append(rep.Items, api.BatchItemReport{Status: 200, Cache: "miss", Result: mustJSON(vr)})
	}
	if err := check(&batch, mustJSON(rep)); err != nil {
		t.Fatalf("engine's own batch answer rejected: %v", err)
	}
	rep.Deduplicated = 0
	if err := check(&batch, mustJSON(rep)); err == nil {
		t.Error("batch with the wrong dedup count accepted")
	}

	d := post("design-smoke", "/v1/design", api.DesignRequest{Catalog: smokeCatalog()}, want{Candidates: 76, Frontier: "4f2344ac6897c1e6"})
	dr := api.DesignReport{Candidates: 76, Tier0: 76, Frontier: []api.DesignPoint{{Name: "x", Level: 3}}}
	if err := check(&d, mustJSON(dr)); err == nil || !strings.Contains(err.Error(), "frontier") {
		t.Errorf("wrong frontier accepted (err %v)", err)
	}
}

func TestCheckFailures(t *testing.T) {
	var r request
	for i := 0; r.Path == ""; i++ {
		if g := degradeDesign(1, i); g.Class == "failures-pods" {
			r = g
		}
	}
	var q api.Request
	if err := json.Unmarshal(r.Body, &q); err != nil {
		t.Fatal(err)
	}
	body, err := runCampaign(&q)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(&r, body); err != nil {
		t.Fatalf("engine's own campaign answer rejected: %v", err)
	}
	var rep api.FailuresReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Curves[0].Points[2].Patterns++
	if err := check(&r, mustJSON(rep)); err == nil {
		t.Error("campaign with a wrong pattern count accepted")
	}
}

// TestWindowAndReplay drives a short verify-mix window over loopback and
// replays it: every answer checks, the queue drains, and the traced replay
// reaches the same answers.
func TestWindowAndReplay(t *testing.T) {
	w := findWorkload("verify-mix")
	hc := newClient()
	defer hc.CloseIdleConnections()
	c, err := setUp(w, hc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	win := runWindow(hc, c.front.url, w.clients, 300*time.Millisecond, func(i int) request { return w.gen(4, i) }, true)
	after, err := scrape(hc, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQueues(after); err != nil {
		t.Error(err)
	}
	rp := newReplayer(newTracer())
	for _, o := range win.outcomes {
		if o.err != nil {
			t.Fatalf("request %d (%s): %v", o.index, o.class, o.err)
		}
	}
	for i := 0; i < len(win.outcomes); i++ {
		var o outcome
		for _, x := range win.outcomes {
			if x.index == i {
				o = x
			}
		}
		r := w.gen(4, i)
		got, err := rp.replay(i, &r)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if want, _ := digest(&r, o.body); got != want {
			t.Fatalf("replay %d (%s) disagrees:\n got %s\nwant %s", i, r.Class, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables the program prints from.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, want %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d printed", len(doc.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if d := doc.EndToEnd[i]; d.Name != e.name || d.Unit != e.unit || d.Better != e.better {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, d, e)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(doc.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		if d := doc.PerLayer[i]; d.Name != l.name || d.Unit != l.unit || d.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, d, l.name, l.unit, l.better)
		}
	}
}
