package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/api"
	"repro/internal/permutation"
)

// check compares one response body with the answer its request was
// generated with. body is the 200 response (for a coordinated sweep, the
// result carried by the terminal done event).
func check(r *request, body []byte) error {
	switch r.Path {
	case "/v1/verify", "/v1/verify/sweep":
		var rep api.VerifyReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("decode verify report: %w", err)
		}
		return checkVerify(&r.Want, &rep)
	case "/v1/verify/batch":
		return checkBatch(&r.Want, body)
	case "/v1/worstcase":
		var rep api.WorstCaseReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("decode worstcase report: %w", err)
		}
		return checkWorstCase(&r.Want, &rep)
	case "/v1/sim":
		var rep api.SimReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("decode sim report: %w", err)
		}
		return checkSim(&r.Want, &rep)
	case "/v1/failures":
		var q api.Request
		if err := json.Unmarshal(r.Body, &q); err != nil {
			return fmt.Errorf("decode own request: %w", err)
		}
		var rep api.FailuresReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("decode failures report: %w", err)
		}
		return checkFailures(&r.Want, &q, &rep)
	case "/v1/design":
		var rep api.DesignReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("decode design report: %w", err)
		}
		return checkDesign(&r.Want, &rep)
	}
	return fmt.Errorf("no checker for %s", r.Path)
}

func checkVerify(w *want, rep *api.VerifyReport) error {
	switch {
	case rep.Hosts != w.Hosts:
		return fmt.Errorf("hosts %d, want %d", rep.Hosts, w.Hosts)
	case rep.Verdict != w.Verdict:
		return fmt.Errorf("verdict %q, want %q", rep.Verdict, w.Verdict)
	case w.Method != "" && rep.Method != w.Method:
		return fmt.Errorf("method %q, want %q", rep.Method, w.Method)
	case rep.Exact != w.Exact:
		return fmt.Errorf("exact %t, want %t", rep.Exact, w.Exact)
	case w.Tested > 0 && rep.Tested != w.Tested:
		return fmt.Errorf("tested %d, want %d", rep.Tested, w.Tested)
	case rep.Tested < w.MinTested:
		return fmt.Errorf("tested %d, want at least %d", rep.Tested, w.MinTested)
	case w.CheckBlocked && rep.Blocked != w.Blocked:
		return fmt.Errorf("blocked %d, want %d", rep.Blocked, w.Blocked)
	case w.Witness != "" && rep.Witness != w.Witness:
		return fmt.Errorf("witness %q, want %q", rep.Witness, w.Witness)
	case (rep.Verdict == "blocking") != (rep.Witness != ""):
		return fmt.Errorf("verdict %q with witness %q", rep.Verdict, rep.Witness)
	}
	if rep.Witness != "" {
		p, err := permutation.Parse(rep.Hosts, rep.Witness)
		if err != nil {
			return fmt.Errorf("witness: %w", err)
		}
		if p.Size() < 2 {
			return fmt.Errorf("witness %q has fewer than two pairs", rep.Witness)
		}
	}
	return nil
}

func checkBatch(w *want, body []byte) error {
	var rep api.BatchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decode batch report: %w", err)
	}
	if len(rep.Items) != w.Items || rep.Unique != w.Unique || rep.Deduplicated != w.Dedup {
		return fmt.Errorf("batch items/unique/dedup %d/%d/%d, want %d/%d/%d",
			len(rep.Items), rep.Unique, rep.Deduplicated, w.Items, w.Unique, w.Dedup)
	}
	for i, it := range rep.Items {
		if it.Status != 200 {
			return fmt.Errorf("batch item %d: status %d: %s", i, it.Status, it.Error)
		}
		var vr api.VerifyReport
		if err := json.Unmarshal(it.Result, &vr); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
		iw := want{Method: "lemma1-exact", Exact: true, Hosts: w.Hosts, Verdict: w.ItemVerdicts[i]}
		if err := checkVerify(&iw, &vr); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

func checkWorstCase(w *want, rep *api.WorstCaseReport) error {
	p, err := permutation.Parse(rep.Hosts, rep.Permutation)
	switch {
	case rep.Hosts != w.Hosts:
		return fmt.Errorf("hosts %d, want %d", rep.Hosts, w.Hosts)
	case err != nil:
		return fmt.Errorf("worst pattern: %w", err)
	case p.Size() != w.Pairs:
		return fmt.Errorf("worst pattern has %d pairs, want %d", p.Size(), w.Pairs)
	case rep.Evaluated < 1 || rep.MaxLinkLoad < 1:
		return fmt.Errorf("evaluated %d patterns, max load %d", rep.Evaluated, rep.MaxLinkLoad)
	case w.NoContended && (rep.ContendedLinks != 0 || rep.MaxLinkLoad != 1):
		return fmt.Errorf("nonblocking routing shows %d contended links", rep.ContendedLinks)
	}
	return nil
}

func checkSim(w *want, rep *api.SimReport) error {
	if rep.Hosts != w.Hosts {
		return fmt.Errorf("hosts %d, want %d", rep.Hosts, w.Hosts)
	}
	if w.SweepPoints > 0 {
		if len(rep.Sweep) != w.SweepPoints {
			return fmt.Errorf("%d sweep points, want %d", len(rep.Sweep), w.SweepPoints)
		}
		for _, pt := range rep.Sweep {
			if pt.AcceptedLoad <= 0 || pt.AcceptedLoad > pt.OfferedLoad+1e-9 {
				return fmt.Errorf("accepted load %g at offered %g", pt.AcceptedLoad, pt.OfferedLoad)
			}
		}
		return nil
	}
	c := rep.Closed
	switch {
	case c == nil:
		return fmt.Errorf("no closed-loop section")
	case c.Pairs != w.Pairs:
		return fmt.Errorf("pairs %d, want %d", c.Pairs, w.Pairs)
	case w.NoContended && (c.ContendedLinks != 0 || c.MaxLinkLoad != 1):
		return fmt.Errorf("nonblocking routing shows %d contended links", c.ContendedLinks)
	case c.Makespan < c.CrossbarMakespan || c.Slowdown < 1:
		return fmt.Errorf("makespan %d beats the crossbar's %d", c.Makespan, c.CrossbarMakespan)
	}
	return nil
}

// checkFailures checks a campaign report's shape against its request and
// the invariants every campaign satisfies. Byte-identity with a direct
// engine run of the same seed is checked separately (crossCheck).
func checkFailures(w *want, q *api.Request, rep *api.FailuresReport) error {
	fr := q.Failures
	if rep.Hosts != w.Hosts || rep.Seed != q.SeedValue() || rep.Scenario != fr.Scenario {
		return fmt.Errorf("report for %s/%d hosts/seed %d, want %s/%d/%d",
			rep.Scenario, rep.Hosts, rep.Seed, fr.Scenario, w.Hosts, q.SeedValue())
	}
	if len(rep.Curves) != len(fr.Schemes) {
		return fmt.Errorf("%d curves, want %d", len(rep.Curves), len(fr.Schemes))
	}
	for i, c := range rep.Curves {
		if c.Scheme != fr.Schemes[i] || len(c.Points) != fr.MaxFailures+1 {
			return fmt.Errorf("curve %d is %s with %d points", i, c.Scheme, len(c.Points))
		}
		for k, pt := range c.Points {
			samples := fr.Samples
			if k == 0 {
				samples = 1
			}
			switch {
			case pt.Failures != k || pt.Samples != samples || pt.Patterns != samples*fr.Trials:
				return fmt.Errorf("%s k=%d: failures/samples/patterns %d/%d/%d", c.Scheme, k, pt.Failures, pt.Samples, pt.Patterns)
			case pt.Blocked+pt.RouteFailures > pt.Patterns:
				return fmt.Errorf("%s k=%d: %d blocked + %d unroutable of %d", c.Scheme, k, pt.Blocked, pt.RouteFailures, pt.Patterns)
			case k == 0 && c.Scheme == "spared-deterministic" && (pt.Blocked != 0 || pt.RouteFailures != 0):
				return fmt.Errorf("pristine Theorem-3 fabric blocked %d patterns", pt.Blocked)
			}
		}
	}
	return nil
}

func checkDesign(w *want, rep *api.DesignReport) error {
	if rep.Candidates != w.Candidates || rep.Tier0+rep.Tier1+rep.Tier2 != rep.Candidates {
		return fmt.Errorf("candidates %d (tiers %d/%d/%d), want %d", rep.Candidates, rep.Tier0, rep.Tier1, rep.Tier2, w.Candidates)
	}
	if fp := frontierPrint(rep.Frontier); fp != w.Frontier {
		return fmt.Errorf("frontier fingerprint %s, want %s", fp, w.Frontier)
	}
	return nil
}

// frontierPrint fingerprints a frontier by its points' names and levels.
// Certificate tiers are left out: they depend on what the shared memo
// already held, which the LRU store makes timing-dependent.
func frontierPrint(pts []api.DesignPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%s|%d;", p.Name, p.Level)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}
