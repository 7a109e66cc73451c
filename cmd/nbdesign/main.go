// Command nbdesign explores the (topology family × n × m × r × router)
// design space of the paper's folded-Clos constructions: catalog file in,
// Pareto frontier of cost versus nonblocking guarantee out, every point
// tagged with the certificate tier that decided it.
//
// The planner answers candidates in three tiers: closed forms (Theorems
// 1–3 and 5, the Benes rearrangeability floor, the recursive multi-level
// construction) without building a topology; monotonicity on the
// top-switch count m (one binary search decides a whole (n, r, router)
// group) plus dominance pruning; and, last, real verification sweeps
// memoized under the nbserve result-store keys.
//
// Usage:
//
//	nbdesign -catalog catalog.json                  # run locally
//	nbdesign -catalog catalog.json -no-prune        # tier-0 + individual sweeps only
//	nbdesign -catalog catalog.json -remote :8080    # POST /v1/design on a live nbserve
//
// The report on stdout is deterministic for a fixed catalog (diffable
// against a golden file); timing and progress go to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/design"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		catalogPath = flag.String("catalog", "", "catalog JSON file (required; - reads stdin)")
		noPrune     = flag.Bool("no-prune", false, "disable tier 1 (monotone binary search + dominance pruning); verifies every undecided candidate individually — the baseline the planner is measured against")
		remote      = flag.String("remote", "", "nbserve address (host:port): POST the catalog to /v1/design instead of planning locally")
		cacheSize   = flag.Int("cache", 4096, "probe memo entries for local runs")
		timeoutMs   = flag.Int64("timeout-ms", 0, "remote request deadline (0 = server default)")
		quiet       = flag.Bool("q", false, "suppress progress lines on stderr")
		frontOnly   = flag.Bool("frontier-only", false, "print only the frontier points without certificates (for diffing runs whose planner effort — tier counters, proof shape — legitimately differs)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *catalogPath == "" {
		fmt.Fprintln(os.Stderr, "nbdesign: -catalog is required")
		os.Exit(2)
	}
	raw, err := readCatalog(*catalogPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbdesign:", err)
		os.Exit(1)
	}

	start := time.Now()
	var rep *api.DesignReport
	if *remote != "" {
		rep, err = runRemote(ctx, *remote, raw, *noPrune, *timeoutMs)
	} else {
		rep, err = runLocal(ctx, raw, *noPrune, *cacheSize, *quiet)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbdesign:", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	var out any = rep
	if *frontOnly {
		// The guarantee surface only: a pruned and a -no-prune run reach
		// the same points and levels through different proofs (monotone
		// witness vs direct sweep), so certificates are dropped here.
		pts := make([]api.DesignPoint, len(rep.Frontier))
		copy(pts, rep.Frontier)
		for i := range pts {
			pts[i].Certificate = api.DesignCertificate{}
		}
		out = pts
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "nbdesign:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "nbdesign: %d candidates (tier0 %d, tier1 %d, tier2 %d; %d pruned, %d groups, %d fresh runs, %d memo hits), %d frontier points in %v\n",
		rep.Candidates, rep.Tier0, rep.Tier1, rep.Tier2, rep.Pruned, rep.Groups,
		rep.FreshRuns, rep.MemoHits, len(rep.Frontier), time.Since(start).Round(time.Millisecond))
}

// readCatalog loads and strictly decodes the catalog file, returning the
// parsed form (local runs re-encode nothing; remote runs wrap it in a
// DesignRequest).
func readCatalog(path string) (*api.DesignCatalog, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var cat api.DesignCatalog
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cat); err != nil {
		return nil, fmt.Errorf("decode catalog: %w", err)
	}
	return &cat, nil
}

// runLocal plans in-process: probes run through the same engine POST
// /v1/verify uses, memoized in a local store under the server keys.
func runLocal(ctx context.Context, cat *api.DesignCatalog, noPrune bool, cacheSize int, quiet bool) (*api.DesignReport, error) {
	memo := store.NewMemory(cacheSize)
	defer memo.Close()
	opts := design.Options{
		Verify: func(ctx context.Context, q *api.Request) (*api.VerifyReport, error) {
			rep, err := server.RunVerifyRequest(ctx, q)
			if err != nil && server.IsBadRequest(err) {
				return nil, fmt.Errorf("%w: %v", design.ErrInfeasible, err)
			}
			return rep, err
		},
		Memo:    memo,
		NoPrune: noPrune,
	}
	if !quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return design.Plan(ctx, cat, opts)
}

// runRemote posts the catalog to a live nbserve's /v1/design.
func runRemote(ctx context.Context, addr string, cat *api.DesignCatalog, noPrune bool, timeoutMs int64) (*api.DesignReport, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	var rep api.DesignReport
	req := api.DesignRequest{Catalog: *cat, NoPrune: noPrune, TimeoutMs: timeoutMs}
	if err := api.PostJSON(ctx, strings.TrimRight(addr, "/")+"/v1/design", &req, http.StatusOK, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
