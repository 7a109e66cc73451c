package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/store"
)

// The distributed sweep coordinator. One exhaustive sweep is cut into
// prefix shards (permutation.PrefixShards — deepened past one level when
// the worker fleet has more slots than the n level-1 shards), each shard
// is POSTed to a worker nbserve's /v1/verify/shard with a per-shard
// timeout, failures are retried with exponential backoff on a different
// worker when one is available, and the per-shard SweepResults merge — in
// lexicographic prefix order — into exactly the result the in-process
// parallel sweep (analysis.Spec.Parallel) computes. Completed shards
// checkpoint to the result store under reserved keys, so a coordinator
// killed mid-sweep resumes without redoing finished shards.

// CoordinatorConfig configures distributed sweep dispatch. Zero values
// select the defaults noted per field.
type CoordinatorConfig struct {
	// Workers lists worker nbserve base URLs (host:port or http://...).
	// Empty means this node serves /v1/verify/sweep locally.
	Workers []string
	// ShardTimeout bounds one shard dispatch, connection to response
	// (0 = 2m). Sent to the worker as the shard request's timeout_ms.
	ShardTimeout time.Duration
	// ShardRetries is how many times one shard may be re-dispatched after
	// a retryable failure before the sweep fails (0 = 3).
	ShardRetries int
	// RetryBackoff is the first retry's delay; each further retry of the
	// same shard doubles it (0 = 250ms). Capped at 10s.
	RetryBackoff time.Duration
	// ShardConcurrency is the number of in-flight shards per worker
	// (0 = 2). len(Workers)·ShardConcurrency is the slot count the shard
	// partition is deepened to reach.
	ShardConcurrency int
	// Client is the HTTP client for shard dispatch (nil = a client with
	// no overall timeout; per-shard contexts bound each call).
	Client *http.Client
}

func (c *CoordinatorConfig) fill() {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.ShardRetries <= 0 {
		c.ShardRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.ShardConcurrency <= 0 {
		c.ShardConcurrency = 2
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	for i, w := range c.Workers {
		if !strings.Contains(w, "://") {
			c.Workers[i] = "http://" + w
		}
	}
}

// shardTask tracks one shard's dispatch lifecycle.
type shardTask struct {
	idx      int
	prefix   []int
	attempts int
	failedOn map[int]bool // worker indexes this shard already failed on
}

// shardEvent is one dispatch outcome, delivered to the coordinator loop.
type shardEvent struct {
	task   *shardTask
	worker int
	rep    *api.ShardReport
	err    error // retryable failure (transport, 5xx, 429)
	fatal  error // permanent failure (a worker 400: the sweep is misconfigured)
}

// runCoordinated fans plan.shards across the worker fleet and merges the
// results. It returns the merged SweepResult in exactly the shape the
// in-process parallel engine would have produced (including the
// canonical re-derivations for witnesses under deep sharding and for
// routing errors), leaving report assembly to the caller.
func (s *Server) runCoordinated(ctx context.Context, sj *sweepJob, q *api.Request, plan *sweepPlan) (*analysis.SweepResult, error) {
	cc := s.cfg.Coordinator
	if plan.sym {
		s.met.symSweeps.Add(1)
	} else if q.SymReduce {
		s.met.symFallbacks.Add(1)
	}
	results := make([]*api.ShardReport, len(plan.shards))
	var pending []*shardTask
	for i, sh := range plan.shards {
		if rep, ok := plan.resumed[plan.shardID(sh)]; ok {
			results[i] = rep
			continue
		}
		pending = append(pending, &shardTask{idx: i, prefix: sh, failedOn: map[int]bool{}})
	}

	if len(pending) > 0 {
		// Buffered for every outcome any schedule can produce, so a
		// dispatch goroutine can always deliver and exit even if the loop
		// has already failed the sweep.
		events := make(chan shardEvent, len(pending)*(cc.ShardRetries+1))
		requeue := make(chan *shardTask, len(pending)*(cc.ShardRetries+1))
		inflight := make([]int, len(cc.Workers))
		running := 0
		completed := 0

		dispatch := func(t *shardTask, w int) {
			t.attempts++
			inflight[w]++
			running++
			s.met.shardsDispatched.Add(1)
			if t.attempts > 1 {
				s.met.shardsRetried.Add(1)
			}
			go func() {
				rep, err, fatal := s.dispatchShard(ctx, cc, q, plan, t.prefix, cc.Workers[w])
				events <- shardEvent{task: t, worker: w, rep: rep, err: err, fatal: fatal}
			}()
		}

		total := len(pending)
		for completed < total {
			pending = assignShards(pending, inflight, cc.ShardConcurrency, dispatch)
			if running == 0 && len(pending) == 0 {
				// Everything outstanding is waiting on a backoff timer.
				select {
				case t := <-requeue:
					pending = append(pending, t)
					continue
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			select {
			case ev := <-events:
				inflight[ev.worker]--
				running--
				if ev.err == nil && ev.fatal == nil {
					// A report whose counts cannot be right is a failed
					// attempt: retried elsewhere, never checkpointed.
					ev.err = plan.checkReport(ev.task.prefix, ev.rep)
				}
				switch {
				case ev.fatal != nil:
					return nil, ev.fatal
				case ev.err != nil:
					ev.task.failedOn[ev.worker] = true
					if ev.task.attempts > cc.ShardRetries {
						return nil, fmt.Errorf("shard %s failed after %d attempts: %w",
							plan.shardID(ev.task.prefix), ev.task.attempts, ev.err)
					}
					backoff := cc.RetryBackoff << (ev.task.attempts - 1)
					if backoff > 10*time.Second {
						backoff = 10 * time.Second
					}
					t := ev.task
					time.AfterFunc(backoff, func() { requeue <- t })
				default:
					results[ev.task.idx] = ev.rep
					completed++
					sj.shardsDone.Add(1)
					sj.tested.Add(int64(ev.rep.Tested))
					sj.blocked.Add(int64(ev.rep.Blocked))
					if !q.NoCache {
						if body, err := json.Marshal(ev.rep); err == nil {
							s.store.Put(store.CheckpointKey(plan.key, ev.rep.Shard), body)
						}
					}
				}
			case t := <-requeue:
				pending = append(pending, t)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}

	return s.mergeCoordinated(ctx, plan, results)
}

// assignShards dispatches, in queue order, every pending shard that
// placeShard finds a worker for (dispatch must count the new attempt in
// inflight) and returns the rest in their order: a shard waiting for a
// worker it has not failed on does not hold back the shards behind it.
func assignShards(pending []*shardTask, inflight []int, slots int, dispatch func(*shardTask, int)) []*shardTask {
	waiting := pending[:0]
	for _, t := range pending {
		if w := placeShard(t.failedOn, inflight, slots); w >= 0 {
			dispatch(t, w)
		} else {
			waiting = append(waiting, t)
		}
	}
	return waiting
}

// placeShard picks the worker for a shard's next attempt given the
// workers it already failed on and each worker's in-flight count: the
// lowest free worker it has not failed on, or -1 to wait for one. Only
// once it has failed on every worker may it go back to any free worker
// (the failures may have been transient).
func placeShard(failedOn map[int]bool, inflight []int, slots int) int {
	exhausted := len(failedOn) >= len(inflight)
	for w, n := range inflight {
		if n < slots && (exhausted || !failedOn[w]) {
			return w
		}
	}
	return -1
}

// dispatchShard POSTs one shard to one worker. err is retryable; fatal
// means the worker rejected the request as invalid (400), which no retry
// can fix.
func (s *Server) dispatchShard(ctx context.Context, cc *CoordinatorConfig, q *api.Request, plan *sweepPlan, shard []int, workerURL string) (rep *api.ShardReport, err, fatal error) {
	sq := *q
	if plan.sym {
		sq.SymReduce, sq.SymShard, sq.ShardPrefix = true, shard, nil
	} else {
		// A sym_reduce sweep that fell back to prefix sharding (reduction
		// inapplicable) must not carry the flag to workers: on the shard
		// endpoint sym_reduce demands a sym_shard.
		sq.SymReduce, sq.SymShard, sq.ShardPrefix = false, nil, shard
	}
	sq.Mode = "" // shard requests carry no engine mode
	sq.NoCache = q.NoCache
	sq.TimeoutMs = cc.ShardTimeout.Milliseconds()
	body, merr := json.Marshal(&sq)
	if merr != nil {
		return nil, nil, merr
	}
	cctx, cancel := context.WithTimeout(ctx, cc.ShardTimeout)
	defer cancel()
	req, merr := http.NewRequestWithContext(cctx, http.MethodPost, workerURL+"/v1/verify/shard", bytes.NewReader(body))
	if merr != nil {
		return nil, nil, merr
	}
	req.Header.Set("Content-Type", "application/json")
	resp, herr := cc.Client.Do(req)
	if herr != nil {
		return nil, fmt.Errorf("worker %s: %w", workerURL, herr), nil
	}
	defer resp.Body.Close()
	out, herr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if herr != nil {
		return nil, fmt.Errorf("worker %s: read response: %w", workerURL, herr), nil
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusBadRequest:
		var er api.ErrorReport
		_ = json.Unmarshal(out, &er)
		return nil, nil, badRequest("worker %s rejected shard: %s", workerURL, er.Error)
	default:
		return nil, fmt.Errorf("worker %s: status %d: %s", workerURL, resp.StatusCode, bytes.TrimSpace(out)), nil
	}
	var sr api.ShardReport
	if uerr := json.Unmarshal(out, &sr); uerr != nil {
		return nil, fmt.Errorf("worker %s: decode shard report: %w", workerURL, uerr), nil
	}
	return &sr, nil, nil
}

// checkReport rejects a shard report whose counts cannot be right, so a
// faulty worker or a corrupted checkpoint can never be merged into a
// certificate: every shard must have 0 ≤ Blocked ≤ Tested, and a prefix
// shard of length k that finished without a routing error must have
// tested exactly (n−k)! patterns. (A sym shard's orbit-weighted count has
// no closed form; the merged total is checked instead.)
func (p *sweepPlan) checkReport(shard []int, rep *api.ShardReport) error {
	if rep.Blocked < 0 || rep.Blocked > rep.Tested {
		return fmt.Errorf("shard %s: report has blocked %d of %d tested", p.shardID(shard), rep.Blocked, rep.Tested)
	}
	if p.sym || rep.RouteErr != "" {
		return nil
	}
	if want := permutation.CountFull(p.t.hosts - len(shard)); rep.Tested != want {
		return fmt.Errorf("shard %s: report has %d tested, want (%d-%d)! = %d", p.shardID(shard), rep.Tested, p.t.hosts, len(shard), want)
	}
	return nil
}

// mergeCoordinated folds the per-shard reports (already in lexicographic
// prefix order) into the single-process parallel sweep's result. Two
// cases need local canonical re-derivation on the coordinator:
//   - any shard reporting a routing error ⇒ the statistical fields are
//     meaningless and the canonical sequential-order first routing error
//     is recomputed, exactly as the in-process parallel pool does;
//   - a blocking sweep under deeper-than-level-1 sharding ⇒ sub-shard
//     witnesses cannot reproduce the level-1 Heap-order witness, so the
//     lowest blocked top-level shard is re-scanned first-blocked-only in
//     its native enumeration order.
func (s *Server) mergeCoordinated(ctx context.Context, plan *sweepPlan, results []*api.ShardReport) (*analysis.SweepResult, error) {
	merged := &analysis.SweepResult{}
	firstBlocked := -1
	for i, rep := range results {
		if rep.RouteErr != "" {
			return analysis.SweepFirstRouteErr(plan.t.router, plan.t.hosts), nil
		}
		merged.Tested += rep.Tested
		merged.Blocked += rep.Blocked
		merged.MaxLinkLoad = max(merged.MaxLinkLoad, rep.MaxLinkLoad)
		if firstBlocked < 0 && rep.Blocked > 0 {
			firstBlocked = i
		}
	}
	if want := permutation.CountFull(plan.t.hosts); merged.Tested != want {
		return nil, fmt.Errorf("merged shard reports tested %d patterns, want %d! = %d", merged.Tested, plan.t.hosts, want)
	}
	if firstBlocked < 0 {
		return merged, nil
	}
	if plan.sym {
		// Sym shard witnesses are canonical representatives in enumeration
		// order — they prove blockedness but are not the parallel engine's
		// witness. Re-derive it locally in the parallel merge order (first
		// blocked pattern of the lowest level-1 prefix shard), exactly what
		// a single-node sweep reports.
		w, err := analysis.SweepSymWitness(ctx, plan.t.router, plan.t.hosts, true)
		if err != nil {
			return nil, err
		}
		if w == nil {
			return nil, fmt.Errorf("sym witness re-derivation found no blocked pattern")
		}
		merged.FirstBlocked = w
		return merged, nil
	}
	if len(plan.shards[firstBlocked]) <= 1 {
		// Level-1 sharding: the worker's witness IS the parallel engine's
		// (same shard, same engine selection, same enumeration order).
		p, err := permutation.Parse(plan.t.hosts, results[firstBlocked].FirstBlocked)
		if err != nil {
			return nil, fmt.Errorf("shard %s: bad witness: %w", results[firstBlocked].Shard, err)
		}
		merged.FirstBlocked = p
		return merged, nil
	}
	top := plan.shards[firstBlocked][0]
	fb, _, err := analysis.Sweep(ctx, plan.t.router, plan.t.hosts, analysis.Spec{Prefix: []int{top}, FirstBlocked: true})
	if err != nil {
		return nil, err
	}
	if fb.FirstBlocked == nil {
		return nil, fmt.Errorf("witness re-derivation found no blocked pattern in shard %d", top)
	}
	merged.FirstBlocked = fb.FirstBlocked
	return merged, nil
}
