package main

import (
	"context"
	"io"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/campaign"
)

// failOpts carries the -fail-* flags of the campaign mode.
type failOpts struct {
	scenario string
	max      int
	samples  int
	trials   int
	schemes  string
	sim      bool
	workers  int
}

func (o failOpts) schemeList() []string {
	if strings.TrimSpace(o.schemes) == "" {
		return nil // campaign default: every scheme
	}
	var out []string
	for _, s := range strings.Split(o.schemes, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// runFailures runs a fault campaign locally and renders the degradation
// curves.
func runFailures(ctx context.Context, out io.Writer, n, m, r int, seed int64, o failOpts) error {
	rep, err := campaign.Run(ctx, campaign.Config{
		N: n, M: m, R: r,
		Scenario:    campaign.Scenario(o.scenario),
		MaxFailures: o.max,
		Samples:     o.samples,
		Trials:      o.trials,
		Schemes:     o.schemeList(),
		Seed:        seed,
		Workers:     o.workers,
		Sim:         o.sim,
	})
	if err != nil {
		return err
	}
	campaign.Render(out, rep)
	return nil
}

// runFailuresRemote submits the campaign to an nbserve node's /v1/failures
// endpoint and renders the returned report. The topology is spelled out in
// full (including m) so the remote result matches the local engine
// byte-for-byte for the same seed.
func runFailuresRemote(ctx context.Context, out io.Writer, remote string, n, m, r int, seed int64, o failOpts) error {
	if !strings.Contains(remote, "://") {
		remote = "http://" + remote
	}
	q := api.Request{
		N: n, M: m, R: r, Seed: api.SeedPtr(seed), Workers: o.workers,
		Failures: &api.FailuresRequest{
			Scenario:    o.scenario,
			MaxFailures: o.max,
			Samples:     o.samples,
			Trials:      o.trials,
			Schemes:     o.schemeList(),
			Sim:         o.sim,
		},
	}
	var rep api.FailuresReport
	if err := api.PostJSON(ctx, remote+"/v1/failures", &q, http.StatusOK, &rep); err != nil {
		return err
	}
	campaign.Render(out, &rep)
	return nil
}
