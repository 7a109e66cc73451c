package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/design"
)

// designOp is the metrics key of POST /v1/design. It is not in the
// endpoint registry: its body is a DesignRequest, not a Request, and its
// tier-2 probes are the jobs — each one fans through the bounded worker
// pool and the shared result store exactly like a POST /v1/verify would.
const designOp = "design"

// infeasible translates a request-validation rejection into
// design.ErrInfeasible: a probe the service refuses means the candidate is
// not constructible there, not that the run failed, so the planner treats
// the point as not-nonblocking instead of failing the whole plan.
func infeasible(err error) error {
	if errors.As(err, &errBadRequest{}) {
		return fmt.Errorf("%w: %v", design.ErrInfeasible, err)
	}
	return err
}

// DesignProbe answers one design-planner probe in-process with POST
// /v1/verify semantics, reporting a request the service would refuse as
// design.ErrInfeasible. cmd/nbdesign's local mode plans through it.
func DesignProbe(ctx context.Context, q *api.Request) (*api.VerifyReport, error) {
	rep, err := RunVerifyRequest(ctx, q)
	return rep, infeasible(err)
}

// VerifyCacheKey returns the canonical result-store key POST /v1/verify
// computes for q. The design planner memoizes probes under exactly these
// keys (a parity test pins it), so explorer and server share one cache.
func VerifyCacheKey(q api.Request) string {
	normalize(&q)
	return verifyEndpoint.key(&q)
}

// designVerifier is DesignProbe on the worker pool: each tier-2 probe
// runs as a regular job (backpressure, deadlines, and metrics included).
func (s *Server) designVerifier() design.VerifyFunc {
	return func(ctx context.Context, q *api.Request) (*api.VerifyReport, error) {
		if err := verifyEndpoint.prepare(q); err != nil {
			return nil, infeasible(err)
		}
		var rep *api.VerifyReport
		_, err := s.do(ctx, func(ctx context.Context) ([]byte, error) {
			out, err := runVerify(ctx, q)
			rep, _ = out.(*api.VerifyReport)
			return nil, err
		})
		if err != nil {
			// rep is only safe to read once the job handed back.
			return nil, infeasible(err)
		}
		return rep, nil
	}
}

// designHandler serves POST /v1/design: decode the catalog, run the
// three-tier planner with the server's store as the probe memo, respond
// with the deterministic DesignReport. The report itself is not cached —
// its probes are, under the /v1/verify keys, which is what makes repeat
// explorations (and later verify calls on the same points) cheap.
func (s *Server) designHandler(w http.ResponseWriter, r *http.Request) {
	em := s.met.endpoints[designOp]
	em.requests.Add(1)
	var req api.DesignRequest
	if !decode(w, r, em, "request", &req) {
		return
	}
	if err := design.ValidateCatalog(&req.Catalog); err != nil {
		fail(w, em, errBadRequest{err})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMs))
	defer cancel()
	rep, err := design.Plan(ctx, &req.Catalog, design.Options{
		Verify:  s.designVerifier(),
		Memo:    s.store,
		NoPrune: req.NoPrune,
	})
	if err != nil {
		fail(w, em, err)
		return
	}
	body, err := json.Marshal(rep)
	if err != nil {
		fail(w, em, err)
		return
	}
	writeJSON(w, http.StatusOK, "miss", body)
}
