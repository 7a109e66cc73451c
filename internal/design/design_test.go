// Package design_test exercises the planner from outside: through the
// exported Plan surface, the test-only SearchMinM/ReplayCondition oracles
// of replay_test.go, and a live nbserve (the external test package may
// import internal/server — the server's own import of internal/design is
// not a cycle through _test).
package design_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/design"
	"repro/internal/server"
	"repro/internal/store"
)

func TestValidateCatalogRejects(t *testing.T) {
	cases := []struct {
		name string
		cat  api.DesignCatalog
	}{
		{"no families", api.DesignCatalog{}},
		{"unknown family", api.DesignCatalog{Families: []string{"torus"}}},
		{"duplicate family", api.DesignCatalog{Families: []string{"ftree", "ftree"}}},
		{"unknown router", api.DesignCatalog{Families: []string{"ftree"}, Routers: []string{"bogus"}}},
		{"empty n range", api.DesignCatalog{Families: []string{"ftree"}, N: &api.DesignRange{Min: 4, Max: 2}}},
		{"r below 2", api.DesignCatalog{Families: []string{"ftree"}, R: &api.DesignRange{Min: 1, Max: 3}}},
		{"negative min_hosts", api.DesignCatalog{Families: []string{"ftree"}, MinHosts: -1}},
		{"negative trials", api.DesignCatalog{Families: []string{"ftree"}, Verify: &api.DesignVerify{Trials: -1}}},
		{"grid too big", api.DesignCatalog{
			Families: []string{"ftree"},
			N:        &api.DesignRange{Min: 1, Max: 64},
			R:        &api.DesignRange{Min: 2, Max: 1 << 9},
			M:        &api.DesignRange{Min: 1, Max: 1 << 9},
		}},
	}
	for _, tc := range cases {
		if err := design.ValidateCatalog(&tc.cat); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestSearchMinMMatchesLinearScan pins the planner's two load-bearing
// assumptions — nonblocking is monotone non-decreasing in m at fixed
// (n, r, router), and m < n is always blocking — by comparing the tier-1
// binary search against a full linear scan of the same verifier over a
// grid of (n, r, router). The scan also asserts monotonicity directly:
// once a verdict is nonblocking it must stay nonblocking for every
// larger m.
func TestSearchMinMMatchesLinearScan(t *testing.T) {
	ctx := context.Background()
	v := api.DesignVerify{MaxHosts: 48, MaxExhaustive: 7, Trials: 100, Seed: 1}
	opts := design.Options{Verify: server.DesignProbe, Memo: store.NewMemory(512)}
	defer opts.Memo.Close()

	cases := []struct {
		router string
		ns, rs []int
		mMax   func(n, r int) int
	}{
		// Single-path pair routers: the Lemma-1 analysis is exact at any
		// size. dest-mod/source-mod become nonblocking at m = n·r;
		// dest-switch-mod never does (two same-switch sources to one
		// destination switch always share a trunk).
		{"dest-mod", []int{2, 3}, []int{3, 4, 5}, func(n, r int) int { return n*r + 2 }},
		{"source-mod", []int{2, 3}, []int{3, 4}, func(n, r int) int { return n*r + 2 }},
		{"dest-switch-mod", []int{2, 3}, []int{3, 4}, func(n, r int) int { return n * r }},
		// Multipath routers on fabrics small enough for the exhaustive
		// engine (hosts ≤ max_exhaustive = 7): verdicts stay exact.
		{"spray", []int{2}, []int{3}, func(n, r int) int { return 8 }},
		{"greedy-local", []int{2}, []int{3}, func(n, r int) int { return 8 }},
	}
	probe := func(n, m, r int, router string) bool {
		q := &api.Request{
			Topo: "ftree", N: n, M: m, R: r, Ports: 20, Levels: 2,
			Routing: router, Mode: "auto",
			Trials: v.Trials, Seed: api.SeedPtr(v.Seed), MaxExhaustive: v.MaxExhaustive,
			Restarts: 8, Steps: 400,
			Pattern: "random", Flits: 4, Pkts: 8, Arbiter: "round-robin",
			SymReduce: true,
		}
		rep, err := server.DesignProbe(ctx, q)
		if err != nil {
			t.Fatalf("probe ftree(%d+%d,%d)/%s: %v", n, m, r, router, err)
		}
		return rep.Verdict != "blocking"
	}
	for _, tc := range cases {
		for _, n := range tc.ns {
			for _, r := range tc.rs {
				mMax := tc.mMax(n, r)
				linear := mMax + 1
				for m := 1; m <= mMax; m++ {
					ok := probe(n, m, r, tc.router)
					if ok && linear > mMax {
						linear = m
					}
					if !ok && linear <= mMax {
						t.Fatalf("%s n=%d r=%d: nonblocking at m=%d but blocking at m=%d — not monotone",
							tc.router, n, r, linear, m)
					}
					if ok && m < n {
						t.Fatalf("%s n=%d r=%d: nonblocking at m=%d < n — pigeonhole bound violated",
							tc.router, n, r, m)
					}
				}
				got, err := design.SearchMinM(ctx, n, r, mMax, tc.router, v, opts)
				if err != nil {
					t.Fatalf("SearchMinM(%s n=%d r=%d): %v", tc.router, n, r, err)
				}
				if got != linear {
					t.Errorf("%s n=%d r=%d: binary search minM=%d, linear scan minM=%d", tc.router, n, r, got, linear)
				}
			}
		}
	}
}

func loadCatalog(t *testing.T, path string) *api.DesignCatalog {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cat api.DesignCatalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	return &cat
}

// TestPlanParetoCatalog is the headline acceptance run: the committed
// pareto catalog enumerates over 10,000 candidates and the planner
// decides at least 95% of them at tiers 0–1 (no topology built), every
// frontier certificate re-deriving cleanly.
func TestPlanParetoCatalog(t *testing.T) {
	cat := loadCatalog(t, "../../catalogs/pareto.json")
	memo := store.NewMemory(4096)
	defer memo.Close()
	rep, err := design.Plan(context.Background(), cat, design.Options{Verify: server.DesignProbe, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates < 10000 {
		t.Fatalf("pareto catalog enumerates %d candidates, want >= 10000", rep.Candidates)
	}
	if rep.Tier0+rep.Tier1+rep.Tier2 != rep.Candidates {
		t.Fatalf("tier counts %d+%d+%d do not cover %d candidates", rep.Tier0, rep.Tier1, rep.Tier2, rep.Candidates)
	}
	cheap := float64(rep.Tier0+rep.Tier1) / float64(rep.Candidates)
	if cheap < 0.95 {
		t.Fatalf("tiers 0–1 decided %.2f%% of candidates, want >= 95%% (tier0=%d tier1=%d tier2=%d)",
			100*cheap, rep.Tier0, rep.Tier1, rep.Tier2)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i := range rep.Frontier {
		if err := design.ReplayCondition(&rep.Frontier[i]); err != nil {
			t.Error(err)
		}
	}
	t.Logf("pareto: %d candidates, tier0 %d (%.1f%%), tier1 %d, tier2 %d, %d pruned, %d groups, %d fresh runs, %d frontier points",
		rep.Candidates, rep.Tier0, 100*float64(rep.Tier0)/float64(rep.Candidates),
		rep.Tier1, rep.Tier2, rep.Pruned, rep.Groups, rep.FreshRuns, len(rep.Frontier))
}

// TestNoPruneFrontierEquality: tier 1 is an optimization, not a
// different answer — the frontier with the planner on equals the
// frontier with every undecided candidate verified individually.
func TestNoPruneFrontierEquality(t *testing.T) {
	cat := loadCatalog(t, "../../catalogs/smoke.json")
	run := func(noPrune bool) *api.DesignReport {
		memo := store.NewMemory(2048)
		defer memo.Close()
		rep, err := design.Plan(context.Background(), cat, design.Options{Verify: server.DesignProbe, Memo: memo, NoPrune: noPrune})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	pruned, exhaustive := run(false), run(true)
	if pruned.Candidates != exhaustive.Candidates {
		t.Fatalf("candidate counts differ: %d vs %d", pruned.Candidates, exhaustive.Candidates)
	}
	if exhaustive.Pruned != 0 || exhaustive.Groups != 0 {
		t.Fatalf("no-prune run still pruned %d / grouped %d", exhaustive.Pruned, exhaustive.Groups)
	}
	if len(pruned.Frontier) != len(exhaustive.Frontier) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(pruned.Frontier), len(exhaustive.Frontier))
	}
	for i := range pruned.Frontier {
		p, q := pruned.Frontier[i], exhaustive.Frontier[i]
		if p.Name != q.Name || p.Level != q.Level || p.CostPerPort != q.CostPerPort || p.Hosts != q.Hosts {
			t.Errorf("frontier[%d] differs: %s level %d vs %s level %d", i, p.Name, p.Level, q.Name, q.Level)
		}
	}
	if pruned.FreshRuns > exhaustive.FreshRuns {
		t.Errorf("planner ran more probes (%d) than the no-prune baseline (%d)", pruned.FreshRuns, exhaustive.FreshRuns)
	}
}

// TestDesignEndToEndServer drives the full integration: POST /v1/design
// on a live nbserve, replay every frontier certificate through
// /v1/verify on the same server, check key parity with the shared result
// store (a replayed probe must be a cache hit — the explorer memoized it
// under the server's own canonical key).
func TestDesignEndToEndServer(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, CacheEntries: 2048})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cat := loadCatalog(t, "../../catalogs/smoke.json")
	body, _ := json.Marshal(api.DesignRequest{Catalog: *cat})
	resp, err := http.Post(ts.URL+"/v1/design", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/design: %s", resp.Status)
	}
	var rep api.DesignReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	replayed := 0
	for i := range rep.Frontier {
		pt := &rep.Frontier[i]
		if err := design.ReplayCondition(pt); err != nil {
			t.Error(err)
			continue
		}
		for _, rp := range pt.Certificate.Replays {
			// Key parity: the certificate's sweep key is the server's
			// canonical key for the same request.
			if key := server.VerifyCacheKey(rp.Request); pt.Certificate.SweepKey != "" && rp.Request.M == pt.Certificate.MinM && key != pt.Certificate.SweepKey {
				t.Errorf("%s: replay key %q != certificate sweep key %q", pt.Name, key, pt.Certificate.SweepKey)
			}
			rb, _ := json.Marshal(rp.Request)
			vresp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(rb))
			if err != nil {
				t.Fatal(err)
			}
			var vrep api.VerifyReport
			if err := json.NewDecoder(vresp.Body).Decode(&vrep); err != nil {
				t.Fatal(err)
			}
			cache := vresp.Header.Get("X-Nbserve-Cache")
			vresp.Body.Close()
			if vresp.StatusCode != http.StatusOK {
				t.Errorf("%s: replay POST /v1/verify: %s", pt.Name, vresp.Status)
				continue
			}
			if vrep.Verdict != rp.WantVerdict || vrep.Exact != rp.WantExact {
				t.Errorf("%s: replay verdict %q (exact %v), certificate recorded %q (exact %v)",
					pt.Name, vrep.Verdict, vrep.Exact, rp.WantVerdict, rp.WantExact)
			}
			if cache != "hit" {
				t.Errorf("%s: replayed probe was a cache %s — explorer and server do not share the result store", pt.Name, cache)
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no certificate carried a replay — the smoke catalog no longer exercises tier 2")
	}
}

// TestDesignRequestValidationHTTP pins the /v1/design error surface.
func TestDesignRequestValidationHTTP(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown field", `{"catalog":{"families":["ftree"]},"bogus":1}`, http.StatusBadRequest},
		{"unknown family", `{"catalog":{"families":["torus"]}}`, http.StatusBadRequest},
		{"no families", `{"catalog":{}}`, http.StatusBadRequest},
		{"ok", `{"catalog":{"families":["multilevel"]}}`, http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/design", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestPlanDeterministic: two runs over the same catalog produce
// byte-identical reports — the property the golden-file smoke test and
// the /v1/design cacheability story rest on.
func TestPlanDeterministic(t *testing.T) {
	cat := loadCatalog(t, "../../catalogs/smoke.json")
	run := func() []byte {
		memo := store.NewMemory(2048)
		defer memo.Close()
		rep, err := design.Plan(context.Background(), cat, design.Options{Verify: server.DesignProbe, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical Plan runs produced different reports")
	}
}

// BenchmarkPlanParetoCatalog plans the committed pareto catalog the way
// nbserve serves /v1/design: the service's verifier and a result store
// warmed by an earlier plan of the same catalog.
func BenchmarkPlanParetoCatalog(b *testing.B) {
	raw, err := os.ReadFile("../../catalogs/pareto.json")
	if err != nil {
		b.Fatal(err)
	}
	var cat api.DesignCatalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		b.Fatal(err)
	}
	memo := store.NewMemory(4096)
	defer memo.Close()
	opts := design.Options{Verify: server.DesignProbe, Memo: memo}
	if _, err := design.Plan(context.Background(), &cat, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := design.Plan(context.Background(), &cat, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = rep
	}
}

var benchSink *api.DesignReport
