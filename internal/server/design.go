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

// IsBadRequest reports whether err is (or wraps) a request-validation
// rejection — the class the HTTP surface answers with 400. Exported for
// the design planner's adapters: a probe refused by validation means the
// candidate is not constructible there, not that the run failed.
func IsBadRequest(err error) bool {
	return errors.As(err, &errBadRequest{})
}

// VerifyCacheKey returns the canonical result-store key POST /v1/verify
// computes for q. The design planner memoizes probes under exactly these
// keys (a parity test pins it), so explorer and server share one cache.
func VerifyCacheKey(q api.Request) string {
	normalize(&q)
	return verifyEndpoint.key(&q)
}

// designVerifier adapts the worker pool to the planner's VerifyFunc: each
// tier-2 probe is enqueued as a regular job (backpressure, deadlines, and
// metrics included) and validation rejections come back as ErrInfeasible
// so the planner treats the point as not-nonblocking instead of failing
// the whole plan.
func (s *Server) designVerifier() design.VerifyFunc {
	return func(ctx context.Context, q *api.Request) (*api.VerifyReport, error) {
		if err := verifyEndpoint.prepare(q); err != nil {
			if IsBadRequest(err) {
				return nil, fmt.Errorf("%w: %v", design.ErrInfeasible, err)
			}
			return nil, err
		}
		var rep *api.VerifyReport
		j := &job{ctx: ctx, done: make(chan jobResult, 1), run: func(ctx context.Context) ([]byte, error) {
			out, err := runVerify(ctx, q)
			if err != nil {
				return nil, err
			}
			rep = out.(*api.VerifyReport)
			return nil, nil
		}}
		if err := s.enqueue(j); err != nil {
			return nil, err
		}
		select {
		case res := <-j.done:
			if res.err != nil {
				if IsBadRequest(res.err) {
					return nil, fmt.Errorf("%w: %v", design.ErrInfeasible, res.err)
				}
				return nil, res.err
			}
			return rep, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
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
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		em.errors.Add(1)
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if err := design.ValidateCatalog(&req.Catalog); err != nil {
		em.errors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
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
		em.errors.Add(1)
		switch {
		case errors.Is(err, errQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, errServerClosing):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			status, msg := errStatus(err)
			writeError(w, status, msg)
		}
		return
	}
	body, err := json.Marshal(rep)
	if err != nil {
		em.errors.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, "miss", body)
}
