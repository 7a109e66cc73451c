package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/api"
)

// request is one call of a workload stream: the endpoint, the exact body
// sent, and the answer fixed when the stream was generated.
type request struct {
	Class string          `json:"class"`
	Path  string          `json:"path"`
	Body  json.RawMessage `json:"body"`
	Want  want            `json:"want"`
}

// want is the expected answer of one request. Zero fields are not checked
// unless a flag says otherwise; see check.go for how each endpoint uses it.
type want struct {
	Verdict string `json:"verdict,omitempty"`
	Method  string `json:"method,omitempty"`
	Exact   bool   `json:"exact,omitempty"`
	Hosts   int    `json:"hosts,omitempty"`
	// Tested is the exact pattern count (n! for exhaustive sweeps);
	// MinTested a lower bound (randomized sweeps add structured patterns).
	Tested    int `json:"tested,omitempty"`
	MinTested int `json:"min_tested,omitempty"`
	// Blocked is checked when CheckBlocked is set (0 is a valid answer).
	Blocked      int    `json:"blocked,omitempty"`
	CheckBlocked bool   `json:"check_blocked,omitempty"`
	Witness      string `json:"witness,omitempty"`
	// Batch: items, distinct keys, in-batch duplicates and each item's
	// verdict in order.
	Items        int      `json:"items,omitempty"`
	Unique       int      `json:"unique,omitempty"`
	Dedup        int      `json:"dedup,omitempty"`
	ItemVerdicts []string `json:"item_verdicts,omitempty"`
	// Worst-case search and simulation: pairs routed and whether the
	// routing is provably contention-free.
	Pairs       int  `json:"pairs,omitempty"`
	NoContended bool `json:"no_contended,omitempty"`
	SweepPoints int  `json:"sweep_points,omitempty"`
	// Design: candidate count and a fingerprint of the frontier's
	// (name, level) list.
	Candidates int    `json:"candidates,omitempty"`
	Frontier   string `json:"frontier,omitempty"`
}

// workload is one traffic mix: its client count, its node layout and its
// request stream. gen is a pure function of (seed, index), so the same seed
// yields the same stream and the traced run can replay any prefix of it.
type workload struct {
	name    string
	why     string
	clients int
	// cluster adds a coordinator with two in-process worker nodes; the
	// clients talk to the coordinator.
	cluster bool
	gen     func(seed int64, i int) request
	// warmup lists the requests of the set-up pass: one per lazily built
	// cache (symmetry groups, the design memo, worker connections). They
	// run with no_cache where the endpoint has it, so the store starts
	// empty.
	warmup func() []request
}

var workloads = []*workload{
	{
		name:    "verify-mix",
		why:     "many short verify, worstcase, sim and batch calls; fixed per-request cost and a read-heavy store with LRU eviction",
		clients: 2,
		gen:     verifyMix,
		warmup:  func() []request { return warmupOf(verifyMix) },
	},
	{
		name:    "certify-sweep",
		why:     "long no_cache exhaustive certificates, single-node and coordinated; enumeration, delta checking and the coordinator",
		clients: 1,
		cluster: true,
		gen:     certifySweep,
		warmup:  certifySweepWarmup,
	},
	{
		name:    "degrade-design",
		why:     "fault campaigns, design catalogs and open-loop sim sweeps; campaign rebuilds and a write-heavy store",
		clients: 2,
		gen:     degradeDesign,
		warmup:  func() []request { return warmupOf(degradeDesign) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer; mix derives independent seeds
// from the workload seed and a tag, so every request draws from its own
// generator and request i never depends on requests before it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed int64, parts ...uint64) uint64 {
	h := uint64(seed)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// fullRequest returns a request with every field the server's normalize
// step fills spelled out, so its CacheKey is the server's job key and the
// traced replay needs no normalization of its own.
func fullRequest(n, m, r int, routing string) api.Request {
	return api.Request{
		Topo: "ftree", N: n, M: m, R: r, Ports: 20, Levels: 2,
		Routing: routing, Mode: "auto", Trials: 500, Seed: api.SeedPtr(1),
		MaxExhaustive: 9, Restarts: 8, Steps: 400,
		Pattern: "random", Flits: 4, Pkts: 8, Arbiter: "round-robin",
		Workers: 1,
	}
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("nbperf: marshal %T: %v", v, err))
	}
	return b
}

func post(class, path string, body any, w want) request {
	return request{Class: class, Path: path, Body: mustJSON(body), Want: w}
}

// verify-mix: Table-I sized ftree(4+16,20) verifications with short
// worst-case searches, closed-loop sims and deduplicating batches. A
// request either repeats one of a few hot keys of its class (kept resident
// by the LRU) or draws a cold key from a space far larger than the
// 256-entry store, so about a quarter of the requests hit. Batches are
// always cold: their expected dedup counts assume no store hits.
const (
	verifyHotShare = 0.30
	verifyHotKeys  = 4 // per class
)

// verifyShares are the cumulative class shares of verify-mix: Lemma-1,
// random, eight-host exhaustive, worst case, closed-loop sim, batch.
var verifyShares = []float64{0.40, 0.46, 0.54, 0.70, 0.86, 1}

func verifyMix(seed int64, i int) request {
	rng := rand.New(rand.NewSource(int64(mix(seed, 1, uint64(i)))))
	class := 0
	for u := rng.Float64(); u >= verifyShares[class]; class++ {
	}
	batch := class == len(verifyShares)-1
	// Every draw below comes from keyRng, seeded by a hot key of the
	// class or by the request index.
	keyRng := rand.New(rand.NewSource(int64(mix(seed, 3, uint64(i)))))
	if rng.Float64() < verifyHotShare && !batch {
		keyRng = rand.New(rand.NewSource(int64(mix(seed, 2, uint64(class), uint64(rng.Intn(verifyHotKeys))))))
	}
	rng = keyRng
	keySeed := rng.Int63() >> 16
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	switch class {
	case 0:
		q := fullRequest(4, 16, 20, pick("paper", "paper-folded", "dest-mod", "source-mod", "dest-switch-mod"))
		q.Seed = &keySeed
		return post("verify-lemma1", "/v1/verify", q, lemma1Want(q.Routing, 80))
	case 1:
		q := fullRequest(4, 16, 20, "paper")
		q.Mode, q.Seed = "random", &keySeed
		return post("verify-random", "/v1/verify", q, want{
			Verdict: "no-blocking-found", Method: "random", Hosts: 80,
			MinTested: q.Trials, CheckBlocked: true,
		})
	case 2:
		// Eight hosts: auto mode sweeps full spray exhaustively; dest-mod
		// is forced through the same engine.
		q := fullRequest(2, 4, 4, "spray")
		q.Seed = &keySeed
		blocked := 36592
		if rng.Intn(2) == 1 {
			q.Routing, q.Mode, blocked = "dest-mod", "exhaustive", 9792
		}
		return post("verify-exhaustive8", "/v1/verify", q, want{
			Verdict: "blocking", Method: "exhaustive", Exact: true, Hosts: 8,
			Tested: 40320, Blocked: blocked, CheckBlocked: true,
		})
	case 3:
		q := fullRequest(2, 4, 4, pick("paper", "dest-mod"))
		q.Seed, q.Restarts, q.Steps = &keySeed, 4, 200
		return post("worstcase", "/v1/worstcase", q, want{Hosts: 8, Pairs: 8, NoContended: q.Routing == "paper"})
	case 4:
		q := fullRequest(4, 16, 4, "paper")
		q.Seed, q.Pattern = &keySeed, pick("shift", "rotate", "transpose")
		return post("sim-closed", "/v1/sim", q, want{Hosts: 16, Pairs: 16, NoContended: true})
	default:
		// Two distinct cold points, each sent twice: the batch runs two
		// jobs and answers the duplicates from them.
		var items []api.Request
		var ws []want
		for k := 0; k < 2; k++ {
			q := fullRequest(4, 16, 20, pick("paper", "dest-mod", "source-mod"))
			s := rng.Int63() >> 16
			q.Seed = &s
			items = append(items, q)
			ws = append(ws, lemma1Want(q.Routing, 80))
		}
		items = append(items, items[1], items[0])
		return post("verify-batch", "/v1/verify/batch", api.BatchRequest{Items: items}, want{
			Items: 4, Unique: 2, Dedup: 2, Hosts: 80,
			ItemVerdicts: []string{ws[0].Verdict, ws[1].Verdict, ws[1].Verdict, ws[0].Verdict},
		})
	}
}

// lemma1Want is the exact Lemma-1 answer on a Theorem-3 provisioned
// ftree (m >= n²): the paper schemes are nonblocking, the modulo schemes
// are blocking with a two-pair witness (pinned for ftree(4+16,20)).
func lemma1Want(routing string, hosts int) want {
	w := want{Method: "lemma1-exact", Exact: true, Hosts: hosts, Verdict: "blocking"}
	switch routing {
	case "paper", "paper-folded":
		w.Verdict = "nonblocking"
	case "dest-mod":
		w.Witness = "0->16 1->32"
	case "source-mod":
		w.Witness = "16->0 32->1"
	case "dest-switch-mod":
		w.Witness = "0->64 1->65"
	}
	return w
}

// certify-sweep: one client, every request a no_cache exhaustive
// certificate. The cycle weights put the median inside the sym-n=12 class
// (5 of 12) and both candidate tail percentiles, p90 and p95, inside the
// n=10 class (2 of 12), so the tail reads the same class whichever one a
// run's sample count supports; the seed shuffles the order within each
// cycle.
const (
	sweep9Witness  = "0->0 1->3 2->6 3->2 4->4 5->1 6->5 7->7 8->8"
	sweep10Witness = "0->0 1->2 2->4 3->1 4->3 5->5 6->6 7->7 8->8 9->9"
	sym12Witness   = "0->0 1->5 2->3 3->4 4->1 5->2 6->6 7->7 8->8 9->9 10->10 11->11"
)

func certifyCycle() []request {
	n9 := fullRequest(3, 3, 3, "dest-mod")
	n9.Mode, n9.Workers, n9.NoCache = "exhaustive-parallel", 2, true
	n9Want := want{
		Verdict: "blocking", Method: "exhaustive-parallel", Exact: true, Hosts: 9,
		Tested: 362880, Blocked: 202176, CheckBlocked: true, Witness: sweep9Witness,
	}

	fb := fullRequest(3, 9, 3, "dest-mod")
	fb.Mode, fb.FirstBlocked, fb.NoCache = "exhaustive", true, true

	n10 := fullRequest(2, 4, 5, "spray")
	n10.Mode, n10.Workers, n10.MaxExhaustive, n10.NoCache = "exhaustive-parallel", 2, 10, true
	n10Want := want{
		Verdict: "blocking", Method: "exhaustive-parallel", Exact: true, Hosts: 10,
		Tested: 3628800, Blocked: 3554272, CheckBlocked: true, Witness: sweep10Witness,
	}

	sym := fullRequest(4, 8, 3, "spray")
	sym.Mode, sym.Workers, sym.MaxExhaustive, sym.SymReduce, sym.NoCache = "exhaustive-parallel", 2, 12, true, true
	symWant := want{
		Verdict: "blocking", Method: "exhaustive-parallel", Exact: true, Hosts: 12,
		Tested: 479001600, Blocked: 476554752, CheckBlocked: true, Witness: sym12Witness,
	}

	big := fullRequest(8, 64, 64, "paper")
	big.NoCache = true

	// The coordinated sweeps carry the same body: /v1/verify/sweep forces
	// exhaustive-parallel and must answer byte-identically to one node.
	return []request{
		post("sweep9", "/v1/verify", n9, n9Want),
		post("sweep9-first-blocked", "/v1/verify", fb, want{
			Verdict: "no-blocking-found", Method: "exhaustive-first-blocked", Exact: true, Hosts: 9,
			Tested: 362880, CheckBlocked: true,
		}),
		post("sweep10", "/v1/verify", n10, n10Want),
		post("sym12", "/v1/verify", sym, symWant),
		post("sym12", "/v1/verify", sym, symWant),
		post("sym12", "/v1/verify", sym, symWant),
		post("sym12", "/v1/verify", sym, symWant),
		post("lemma1-512", "/v1/verify", big, lemma1Want("paper", 512)),
		post("sym12", "/v1/verify", sym, symWant),
		post("sweep10", "/v1/verify", n10, n10Want),
		post("coord-sweep9", "/v1/verify/sweep", n9, n9Want),
		post("coord-sym12", "/v1/verify/sweep", sym, symWant),
	}
}

// certifyRequests is built once: clients read it concurrently.
var certifyRequests = certifyCycle()

func certifySweep(seed int64, i int) request {
	cycle := certifyRequests
	round := i / len(cycle)
	order := rand.New(rand.NewSource(int64(mix(seed, 5, uint64(round))))).Perm(len(cycle))
	return cycle[order[i%len(cycle)]]
}

// certifyRequest returns the cycle's first request of class.
func certifyRequest(class string) request {
	for _, r := range certifyRequests {
		if r.Class == class {
			return r
		}
	}
	panic("nbperf: no certify-sweep class " + class)
}

// certifySweepWarmup fills the symmetry-group cache and opens the
// coordinator's worker connections; the long n=10 and 512-host requests
// warm nothing.
func certifySweepWarmup() []request {
	return []request{certifyRequest("sym12"), certifyRequest("coord-sweep9"), certifyRequest("coord-sym12")}
}

// degrade-design: fault campaigns over all four scenarios with a unique
// seed each (unique keys, so the store is write-heavy), design catalogs
// through the planner and the shared memo, and open-loop load sweeps.
func degradeDesign(seed int64, i int) request {
	rng := rand.New(rand.NewSource(int64(mix(seed, 6, uint64(i)))))
	class := rng.Float64()
	keySeed := int64(mix(seed, 7, uint64(i)) >> 16)
	campaignReq := func(n int, sc string, sim bool) api.Request {
		q := fullRequest(n, n*n, 8, "paper")
		q.Seed = &keySeed
		q.Failures = &api.FailuresRequest{
			Scenario: sc, MaxFailures: 4, Samples: 3, Trials: 50,
			Schemes: []string{"adaptive-avoiding", "spared-deterministic", "naive-remap", "local-reroute"},
			Sim:     sim,
		}
		return q
	}
	switch {
	case class < 0.17:
		return post("failures-tops", "/v1/failures", campaignReq(3, "tops", false), want{Hosts: 24})
	case class < 0.34:
		return post("failures-tops-correlated", "/v1/failures", campaignReq(3, "tops-correlated", false), want{Hosts: 24})
	case class < 0.51:
		return post("failures-links", "/v1/failures", campaignReq(2, "links", true), want{Hosts: 16})
	case class < 0.66:
		return post("failures-pods", "/v1/failures", campaignReq(3, "pods", false), want{Hosts: 24})
	case class < 0.74:
		return post("design-pareto", "/v1/design", api.DesignRequest{Catalog: paretoCatalog()}, want{
			Candidates: 18537, Frontier: "bfacf9116b5df427",
		})
	case class < 0.84:
		return post("design-smoke", "/v1/design", api.DesignRequest{Catalog: smokeCatalog()}, want{
			Candidates: 76, Frontier: "4f2344ac6897c1e6",
		})
	default:
		q := fullRequest(3, 9, 8, "paper")
		q.Seed, q.OpenLoop = &keySeed, true
		return post("sim-openloop", "/v1/sim", q, want{Hosts: 24, SweepPoints: 5})
	}
}

// firstOfEachClass returns the first request of every class among the
// first 256 requests of gen's stream at seed 0.
func firstOfEachClass(gen func(int64, int) request) []request {
	var out []request
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		if r := gen(0, i); !seen[r.Class] {
			seen[r.Class] = true
			out = append(out, r)
		}
	}
	return out
}

// warmupOf is one no_cache request of every class of gen. Design requests
// keep using the store: filling the design memo is their warm-up.
func warmupOf(gen func(int64, int) request) []request {
	out := firstOfEachClass(gen)
	for i, r := range out {
		switch r.Path {
		case "/v1/design":
		case "/v1/verify/batch":
			var b api.BatchRequest
			_ = json.Unmarshal(r.Body, &b) // generated by this package
			b.NoCache = true
			out[i].Body = mustJSON(b)
		default:
			var q api.Request
			_ = json.Unmarshal(r.Body, &q)
			q.NoCache = true
			out[i].Body = mustJSON(q)
		}
	}
	return out
}

// paretoCatalog and smokeCatalog are the repository's catalogs/pareto.json
// and catalogs/smoke.json, held here so the benchmark's inputs cannot move
// when those files change.
func paretoCatalog() api.DesignCatalog {
	return api.DesignCatalog{
		Families: []string{"ftree", "xgft", "mnt", "multilevel"},
		Routers:  []string{"deterministic", "adaptive", "dest-mod", "dest-switch-mod", "spray", "mnt-dest-mod", "mnt-random"},
		N:        &api.DesignRange{Min: 2, Max: 6},
		R:        &api.DesignRange{Min: 3, Max: 24},
		M:        &api.DesignRange{Min: 1, Max: 24},
		Ports:    &api.DesignRange{Min: 4, Max: 16},
		Levels:   &api.DesignRange{Min: 2, Max: 4},
		Verify:   &api.DesignVerify{MaxHosts: 18, MaxExhaustive: 8, Trials: 500},
	}
}

func smokeCatalog() api.DesignCatalog {
	return api.DesignCatalog{
		Families: []string{"ftree", "mnt"},
		Routers:  []string{"deterministic", "dest-mod", "mnt-dest-mod"},
		N:        &api.DesignRange{Min: 4, Max: 4},
		R:        &api.DesignRange{Min: 3, Max: 5},
		M:        &api.DesignRange{Min: 1, Max: 12},
		Ports:    &api.DesignRange{Min: 4, Max: 6},
		Levels:   &api.DesignRange{Min: 2, Max: 3},
		Verify:   &api.DesignVerify{MaxHosts: 18, MaxExhaustive: 7, Trials: 100},
	}
}
