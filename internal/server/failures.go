package server

import (
	"context"

	"repro/internal/api"
	"repro/internal/campaign"
)

// Caps on the failures block. The per-cell work is Trials pattern
// analyses over the fabric, so the combined cap below bounds the total
// path-check work a single request can schedule — the failures analogue
// of the max_exhaustive opt-in on verify sweeps (but with no opt-in: a
// bigger campaign belongs on the nbverify CLI).
const (
	maxFailureSamples = 64
	maxFailureTrials  = 5000
	maxCampaignWork   = 1 << 26 // cells × trials × hosts
)

// normalizeFailures fills the failures-block defaults (campaign's own
// defaults, spelled out here so explicit and implicit requests share a
// cache key).
func normalizeFailures(q *api.Request) {
	fr := q.Failures
	if fr == nil {
		return
	}
	if fr.Scenario == "" {
		fr.Scenario = string(campaign.ScenarioTops)
	}
	if fr.MaxFailures == 0 {
		fr.MaxFailures = 4
	}
	if fr.Samples == 0 {
		fr.Samples = 3
	}
	if fr.Trials == 0 {
		fr.Trials = 50
	}
	if len(fr.Schemes) == 0 {
		fr.Schemes = campaign.DefaultSchemes()
	}
}

func validateFailures(q *api.Request) error {
	if q.Topo != "ftree" {
		return badRequest("fault campaigns support topo ftree only (have %q)", q.Topo)
	}
	fr := q.Failures
	if fr == nil {
		return badRequest("/v1/failures requires a failures block")
	}
	sc := campaign.Scenario(fr.Scenario)
	if !campaign.KnownScenario(sc) {
		return badRequest("unknown failure scenario %q", fr.Scenario)
	}
	dom, err := campaign.ScenarioDomain(sc, q.N, q.M, q.R)
	if err != nil {
		return badRequest("%v", err)
	}
	if fr.MaxFailures < 0 || fr.MaxFailures > dom {
		return badRequest("max_failures %d out of range [0, %d] for scenario %s on ftree(%d+%d,%d)",
			fr.MaxFailures, dom, sc, q.N, q.M, q.R)
	}
	if fr.Samples < 1 || fr.Samples > maxFailureSamples {
		return badRequest("samples %d out of range [1, %d]", fr.Samples, maxFailureSamples)
	}
	if fr.Trials < 1 || fr.Trials > maxFailureTrials {
		return badRequest("failure trials %d out of range [1, %d]", fr.Trials, maxFailureTrials)
	}
	for _, s := range fr.Schemes {
		if !campaign.KnownScheme(s) {
			return badRequest("unknown failure scheme %q", s)
		}
	}
	cells := int64(len(fr.Schemes)) * int64(1+fr.MaxFailures*fr.Samples)
	if work := cells * int64(fr.Trials) * int64(requestHosts(q)); work > maxCampaignWork {
		return badRequest("campaign schedules %d pattern-host checks, exceeds %d; shrink the sweep or use nbverify -failures offline",
			work, int64(maxCampaignWork))
	}
	return nil
}

// runFailures maps the request onto the campaign engine. Validation has
// already pinned every parameter, so campaign.Run's own validation is a
// backstop only.
func runFailures(ctx context.Context, q *api.Request) (any, error) {
	fr := q.Failures
	return campaign.Run(ctx, campaign.Config{
		N:           q.N,
		M:           q.M,
		R:           q.R,
		Scenario:    campaign.Scenario(fr.Scenario),
		MaxFailures: fr.MaxFailures,
		Samples:     fr.Samples,
		Trials:      fr.Trials,
		Schemes:     fr.Schemes,
		Seed:        q.SeedValue(),
		Workers:     q.Workers,
		Sim:         fr.Sim,
		SimFlits:    q.Flits,
		SimPackets:  q.Pkts,
	})
}
