package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/api"
)

// batchGroup is one unique canonical key within a batch: the first item
// with the key plus every duplicate's index. One computation (or one store
// hit) answers all of them.
type batchGroup struct {
	key     string
	req     *api.Request
	indices []int // item positions answering to this key, in order

	status int    // HTTP status the items report
	cache  string // hit | miss (duplicates beyond the first become dedup)
	errMsg string
	body   []byte
	done   <-chan jobResult // non-nil while a job is in flight
}

// batchHandler answers POST /v1/verify/batch: many verify points in one
// call. Items are normalized and validated individually (a bad item gets a
// per-item 400 and never blocks its neighbors), deduplicated by canonical
// key within the batch, looked up in the result store, and the remaining
// unique misses fan out concurrently through the same bounded worker pool
// as single requests. The response carries per-item results/errors in
// request order. A batch whose unique misses cannot fit the job queue even
// when empty is rejected whole with 429 — partial evaluation of an
// oversized batch would return a mix of answers and retries forever.
func (s *Server) batchHandler(w http.ResponseWriter, r *http.Request) {
	em := s.met.endpoints[batchOp]
	em.requests.Add(1)
	var batch api.BatchRequest
	if !decode(w, r, em, "batch", &batch) {
		return
	}
	if len(batch.Items) == 0 {
		fail(w, em, badRequest("batch has no items"))
		return
	}
	if len(batch.Items) > s.cfg.MaxBatchItems {
		fail(w, em, badRequest("batch has %d items, limit %d", len(batch.Items), s.cfg.MaxBatchItems))
		return
	}
	s.met.batches.Add(1)
	s.met.batchItems.Add(int64(len(batch.Items)))

	// Normalize, validate, and group by canonical key. Invalid items
	// are answered in place and never grouped.
	rep := api.BatchReport{Items: make([]api.BatchItemReport, len(batch.Items))}
	groups := make(map[string]*batchGroup)
	var order []*batchGroup
	for i := range batch.Items {
		it := &batch.Items[i]
		if err := verifyEndpoint.prepare(it); err != nil {
			rep.Items[i] = api.BatchItemReport{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		key := verifyEndpoint.key(it)
		// no_cache items group separately from cacheable ones with the
		// same canonical key: folding them into a cacheable group would
		// silently serve them a store hit via the first item's flag.
		// They still dedup against each other — one fresh computation,
		// never stored, answers every no_cache duplicate.
		gkey := key
		if it.NoCache {
			gkey = "!" + key
		}
		g, ok := groups[gkey]
		if !ok {
			g = &batchGroup{key: key, req: it}
			groups[gkey] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
	}
	rep.Unique = len(order)

	// Result-store lookups settle groups without scheduling work.
	noCache := batch.NoCache
	var toRun []*batchGroup
	for _, g := range order {
		if !noCache && !g.req.NoCache {
			if body, ok := s.lookup(em, g.key); ok {
				g.status, g.cache, g.body = http.StatusOK, "hit", body
				continue
			}
		}
		toRun = append(toRun, g)
	}

	// Backpressure: the whole remainder must fit the queue. This keeps
	// the 429 decision deterministic (capacity, not racing clients) and
	// whole-batch, matching the single-request contract.
	if len(toRun) > s.cfg.QueueDepth {
		em.errors.Add(1)
		s.met.jobsRejected.Add(int64(len(toRun)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("batch needs %d job slots, queue capacity is %d", len(toRun), s.cfg.QueueDepth))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(batch.TimeoutMs))
	defer cancel()

	// Fan out. Concurrent single-request traffic may still have filled
	// the queue between the capacity check and here; those groups get a
	// per-item 429 instead of failing the batch.
	for _, g := range toRun {
		req := g.req
		done, err := s.submit(ctx, func(ctx context.Context) ([]byte, error) {
			return verifyEndpoint.body(ctx, req)
		})
		if err != nil {
			g.status, g.errMsg = errStatus(err)
			continue
		}
		g.done = done
		rep.JobsRun++
	}
	for _, g := range toRun {
		if g.done == nil {
			continue
		}
		res := await(ctx, g.done)
		if res.err != nil {
			g.status, g.errMsg = errStatus(res.err)
			continue
		}
		g.status, g.cache, g.body = http.StatusOK, "miss", res.body
		if !noCache && !g.req.NoCache {
			s.fill(g.key, res.body)
		}
	}

	// Fan results back to every item position, in order. The first
	// item of a group keeps the group's cache state; duplicates that
	// were computed in this batch report "dedup". Every item of a
	// store-hit group counts as a cache hit and nothing else: those
	// duplicates were answered by the store, not by another item's
	// computation, so they do not also count as Deduplicated.
	for _, g := range order {
		for n, idx := range g.indices {
			item := api.BatchItemReport{Status: g.status, Cache: g.cache, Error: g.errMsg, Result: g.body}
			if g.cache == "hit" {
				rep.CacheHits++
			} else if n > 0 {
				rep.Deduplicated++
				s.met.batchDeduped.Add(1)
				if item.Cache == "miss" {
					item.Cache = "dedup"
				}
			}
			rep.Items[idx] = item
		}
	}

	body, err := json.Marshal(&rep)
	if err != nil {
		fail(w, em, err)
		return
	}
	writeJSON(w, http.StatusOK, "batch", body)
}
