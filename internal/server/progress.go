package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
	"repro/internal/store"
)

// The sweep job registry: POST /v1/verify/sweep runs an exhaustive sweep
// as a tracked background job — locally through the in-process parallel
// engine, or fanned across worker nodes when the server is a coordinator
// — and clients follow it via GET /v1/jobs/{id} (status snapshot) or
// GET /v1/jobs/{id}/events (SSE stream: `progress` events while counters
// move, one terminal `done` event carrying the final body). All counters
// are monotonically non-decreasing, so an SSE client never observes
// progress moving backwards.

// sweepOp is the metrics key for /v1/verify/sweep.
const sweepOp = "verify_sweep"

// sweepJob is one tracked sweep. Counter fields are atomics written by
// the runner (and, for coordinated sweeps, its dispatch goroutines);
// state/result transitions happen under mu exactly once, after which done
// is closed.
type sweepJob struct {
	id  string
	key string // canonical verify cache key; "" for no_cache jobs

	shardsTotal int
	resumed     int

	shardsDone atomic.Int64
	tested     atomic.Int64
	blocked    atomic.Int64

	mu     sync.Mutex
	state  string // running | done | failed
	errMsg string
	result []byte

	done chan struct{}
}

// status snapshots the job as the wire schema shared by the status
// endpoint and every SSE event.
func (sj *sweepJob) status() *api.SweepStatus {
	sj.mu.Lock()
	state, errMsg, result := sj.state, sj.errMsg, sj.result
	sj.mu.Unlock()
	st := &api.SweepStatus{
		JobID:       sj.id,
		State:       state,
		ShardsTotal: sj.shardsTotal,
		ShardsDone:  int(sj.shardsDone.Load()),
		Resumed:     sj.resumed,
		Tested:      sj.tested.Load(),
		Blocked:     sj.blocked.Load(),
		Error:       errMsg,
	}
	if state == "done" {
		st.Result = json.RawMessage(result)
	}
	return st
}

func (sj *sweepJob) finish(result []byte) {
	sj.mu.Lock()
	if sj.state == "running" {
		sj.state, sj.result = "done", result
		close(sj.done)
	}
	sj.mu.Unlock()
}

func (sj *sweepJob) fail(msg string) {
	sj.mu.Lock()
	if sj.state == "running" {
		sj.state, sj.errMsg = "failed", msg
		close(sj.done)
	}
	sj.mu.Unlock()
}

// sweepPlan is everything the handler resolves up front: the validated
// target, the canonical key, the shard partition, and any checkpointed
// shard results found in the store. When sym is true the sweep is
// symmetry-reduced: each shards entry is a [lo, hi) necklace-index range
// of the orbit enumeration instead of a destination prefix, identified
// as "sym.lo.hi" in checkpoints and reports.
type sweepPlan struct {
	t         *target
	key       string
	shards    [][]int
	resumed   map[string]*api.ShardReport // by shard id
	workers   []string
	sym       bool
	blockSize int
}

// shardID renders one plan entry's identifier in its scheme's canonical
// form (dotted prefix, or "sym.lo.hi" for symmetry-reduced ranges).
func (p *sweepPlan) shardID(shard []int) string {
	if p.sym {
		return api.SymShardID(shard[0], shard[1])
	}
	return api.ShardID(shard)
}

// newSweep registers a fresh job for plan and returns it. Callers hold no
// locks.
func (s *Server) newSweep(plan *sweepPlan, dedupKey string) *sweepJob {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	s.sweepSeq++
	sj := &sweepJob{
		id:          fmt.Sprintf("s%d", s.sweepSeq),
		key:         plan.key,
		shardsTotal: len(plan.shards),
		resumed:     len(plan.resumed),
		state:       "running",
		done:        make(chan struct{}),
	}
	sj.shardsDone.Store(int64(len(plan.resumed)))
	for _, rep := range plan.resumed {
		sj.tested.Add(int64(rep.Tested))
		sj.blocked.Add(int64(rep.Blocked))
	}
	s.sweeps[sj.id] = sj
	if dedupKey != "" {
		s.sweepByKey[dedupKey] = sj
	}
	return sj
}

func (s *Server) lookupSweep(id string) *sweepJob {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.sweeps[id]
}

// sweepHandler answers POST /v1/verify/sweep: validate exactly like a
// forced exhaustive-parallel verify, serve finished results straight from
// the store, dedup against an identical running sweep, otherwise plan the
// shard partition (resuming from checkpoints) and launch the runner. The
// response is always 202-shaped metadata (SweepAccepted); the result
// arrives via the job endpoints.
func (s *Server) sweepHandler(w http.ResponseWriter, r *http.Request) {
	em := s.met.endpoints[sweepOp]
	em.requests.Add(1)
	var q api.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		em.errors.Add(1)
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	// A sweep IS a forced exhaustive-parallel verify: same validation
	// (including the max_exhaustive opt-in), same canonical key, and a
	// final body byte-identical to /v1/verify in that mode.
	q.Mode = "exhaustive-parallel"
	if err := verifyEndpoint.prepare(&q); err != nil {
		em.errors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := q.CacheKey("verify")

	accepted := func(sj *sweepJob) {
		body, _ := json.Marshal(&api.SweepAccepted{
			JobID:     sj.id,
			Shards:    sj.shardsTotal,
			Workers:   len(s.coordWorkers()),
			Resumed:   sj.resumed,
			StatusURL: "/v1/jobs/" + sj.id,
			EventsURL: "/v1/jobs/" + sj.id + "/events",
		})
		writeJSON(w, http.StatusAccepted, "miss", body)
	}

	if !q.NoCache {
		// Finished earlier (by a sweep or a plain verify): a pre-completed
		// job hands the stored body to the job endpoints unchanged.
		if body, ok := s.store.Get(key); ok {
			em.cacheHits.Add(1)
			s.met.storeHits.Add(1)
			sj := s.newSweep(&sweepPlan{key: key}, "")
			sj.finish(body)
			accepted(sj)
			return
		}
		s.met.storeMisses.Add(1)
		// Identical sweep already running: follow it instead of redoing
		// the work.
		s.sweepMu.Lock()
		running := s.sweepByKey[key]
		s.sweepMu.Unlock()
		if running != nil {
			accepted(running)
			return
		}
	}

	plan, err := s.planSweep(&q, key)
	if err != nil {
		em.errors.Add(1)
		status, msg := errStatus(err)
		writeError(w, status, msg)
		return
	}
	dedupKey := key
	if q.NoCache {
		dedupKey = ""
	}
	sj := s.newSweep(plan, dedupKey)
	s.sweepWg.Add(1)
	go s.runSweep(sj, &q, plan)
	accepted(sj)
}

// coordWorkers returns the configured worker list (nil when this node is
// not a coordinator).
func (s *Server) coordWorkers() []string {
	if s.cfg.Coordinator == nil {
		return nil
	}
	return s.cfg.Coordinator.Workers
}

// planSweep builds the target, plans the shard partition, and loads any
// checkpointed shards. Local (non-coordinated) sweeps are one implicit
// shard with no checkpointing — the in-process parallel engine already
// shards internally.
func (s *Server) planSweep(q *api.Request, key string) (*sweepPlan, error) {
	t, err := buildTarget(q)
	if err != nil {
		return nil, err
	}
	plan := &sweepPlan{t: t, key: key, resumed: map[string]*api.ShardReport{}, workers: s.coordWorkers()}
	if len(plan.workers) == 0 {
		plan.shards = [][]int{nil} // one implicit shard: the whole space
		return plan, nil
	}
	cc := s.cfg.Coordinator
	slots := len(plan.workers) * cc.ShardConcurrency
	if q.SymReduce {
		// Plan orbit-range shards when the reduction provably applies to
		// this target; otherwise fall back to the prefix partition of the
		// full sweep (the merged result is byte-identical either way, so
		// both plans serve the same cache key). Applicability is
		// deterministic in (router, hosts, blockSize): identically
		// configured workers always reach the same answer, and one that
		// disagrees fails its shard with a fatal 400.
		bs := symBlockSize(q, t)
		if analysis.SymApplicable(t.router, t.hosts, bs).Applied {
			sym, err := permutation.NewBlockSymmetry(t.hosts, bs)
			if err != nil {
				return nil, err
			}
			plan.sym, plan.blockSize = true, bs
			for _, rg := range sym.Shards(slots) {
				plan.shards = append(plan.shards, []int{rg[0], rg[1]})
			}
		}
	}
	if !plan.sym {
		plan.shards = permutation.PrefixShards(t.hosts, slots)
	}
	if !q.NoCache {
		for _, sh := range plan.shards {
			id := plan.shardID(sh)
			body, ok := s.store.Get(store.CheckpointKey(key, id))
			if !ok {
				continue
			}
			var rep api.ShardReport
			if json.Unmarshal(body, &rep) != nil || plan.checkReport(sh, &rep) != nil {
				continue // torn or implausible checkpoint: recompute the shard
			}
			plan.resumed[id] = &rep
			s.met.shardsResumed.Add(1)
		}
	}
	return plan, nil
}

// runSweep executes one tracked sweep to completion and publishes the
// terminal state. It runs on its own goroutine under the server's sweep
// context, so Close cancels and joins it before the store shuts down.
func (s *Server) runSweep(sj *sweepJob, q *api.Request, plan *sweepPlan) {
	defer s.sweepWg.Done()
	defer func() {
		s.sweepMu.Lock()
		if s.sweepByKey[sj.key] == sj {
			delete(s.sweepByKey, sj.key)
		}
		s.sweepMu.Unlock()
	}()
	ctx, cancel := context.WithTimeout(s.sweepCtx, s.timeoutFor(q.TimeoutMs))
	defer cancel()

	var res *analysis.SweepResult
	var err error
	if len(plan.workers) > 0 {
		res, err = s.runCoordinated(ctx, sj, q, plan)
	} else {
		progress := func(dt, db int) {
			sj.tested.Add(int64(dt))
			sj.blocked.Add(int64(db))
		}
		spec := analysis.Spec{Parallel: true, Workers: q.Workers, Progress: progress}
		if q.SymReduce {
			// The sym engine matches the parallel engine byte-for-byte and
			// reports orbit-scaled progress deltas, so the SSE stream still
			// counts patterns, not representatives.
			spec.SymBlock = symBlockSize(q, plan.t)
		}
		var stats *analysis.SymStats
		res, stats, err = analysis.Sweep(ctx, plan.t.router, plan.t.hosts, spec)
		if err == nil && stats != nil {
			if stats.Applied {
				s.met.symSweeps.Add(1)
			} else {
				s.met.symFallbacks.Add(1)
			}
		}
		if err == nil {
			sj.shardsDone.Store(1)
		}
	}
	if err == nil && res.RouteErr != nil {
		err = res.RouteErr
	}
	if err != nil {
		s.met.endpoints[sweepOp].errors.Add(1)
		_, msg := errStatus(err)
		sj.fail(msg)
		return
	}

	rep := sweepVerdict(&api.VerifyReport{
		Network: plan.t.net.Name, Hosts: plan.t.hosts, Routing: plan.t.router.Name(),
		Method: "exhaustive-parallel", Exact: true,
	}, res)
	body, merr := json.Marshal(rep)
	if merr != nil {
		sj.fail(merr.Error())
		return
	}
	if !q.NoCache {
		s.store.Put(sj.key, body)
		s.met.storePuts.Add(1)
	}
	sj.finish(body)
}

// jobStatusHandler answers GET /v1/jobs/{id} with the job's current
// status snapshot (including the final result once done).
func (s *Server) jobStatusHandler(w http.ResponseWriter, r *http.Request) {
	sj := s.lookupSweep(r.PathValue("id"))
	if sj == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	body, _ := json.Marshal(sj.status())
	writeJSON(w, http.StatusOK, "live", body)
}

// jobEventsHandler answers GET /v1/jobs/{id}/events with an SSE stream:
// an immediate `progress` snapshot, further `progress` events whenever
// the counters move (sampled at the configured interval), and a terminal
// `done` event carrying the final status — result or error — after which
// the stream closes. Events are monotonic because the underlying counters
// only ever increase.
func (s *Server) jobEventsHandler(w http.ResponseWriter, r *http.Request) {
	sj := s.lookupSweep(r.PathValue("id"))
	if sj == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, st *api.SweepStatus) {
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	last := sj.status()
	emit("progress", last)
	ticker := time.NewTicker(s.cfg.ProgressInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sj.done:
			emit("done", sj.status())
			return
		case <-ticker.C:
			st := sj.status()
			if st.ShardsDone != last.ShardsDone || st.Tested != last.Tested ||
				st.Blocked != last.Blocked || st.State != last.State {
				emit("progress", st)
				last = st
			}
		}
	}
}
