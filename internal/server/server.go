// Package server implements nbserve: the paper's verification and
// simulation engines behind a concurrent HTTP JSON API. The design goals,
// in order: never lose a correctness property the batch CLIs have
// (responses are byte-compatible with `nbsim -json`; sweep results are
// deterministic), bound resource usage under load (a fixed worker pool
// with queue backpressure — overflow is an immediate 429, not an unbounded
// goroutine pile; a validation layer rejects out-of-range and
// factorially-explosive requests before they reach a worker), and make
// repeated design-space queries cheap (a pluggable result store over
// canonicalized requests — in-memory LRU or a persistent file-backed
// backend that survives restarts — plus a batch endpoint that
// deduplicates identical points within one call). Every engine is one
// endpoint value in jobs.go, and every caller — handlers, batch items,
// sweeps, design probes, and the nbsim and nbdesign CLIs — enters it
// through the same prepare → run path. Long sweeps honor
// per-request deadlines and client disconnects through the context
// plumbing in internal/analysis, and shutdown drains in-flight jobs
// before the process exits.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/store"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Workers is the number of concurrent job executors (0 = 4).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full queue
	// rejects with 429 (0 = 64).
	QueueDepth int
	// CacheEntries bounds the default in-memory result store (0 = 256).
	// Ignored when Store is set.
	CacheEntries int
	// Store is the result store backend. Nil selects an in-memory LRU of
	// CacheEntries. The server takes ownership: Close closes it.
	Store store.Store
	// MaxBatchItems bounds the item count of one /v1/verify/batch call
	// (0 = 256).
	MaxBatchItems int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout caps client-supplied deadlines (0 = 30s / 5m).
	DefaultTimeout, MaxTimeout time.Duration
	// Coordinator, when set, makes this node a distributed-sweep
	// coordinator: /v1/verify/sweep fans shards across its Workers instead
	// of running the in-process parallel engine.
	Coordinator *CoordinatorConfig
	// ProgressInterval is the SSE sampling period for /v1/jobs/{id}/events
	// (0 = 100ms).
	ProgressInterval time.Duration
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 100 * time.Millisecond
	}
	if c.Coordinator != nil {
		c.Coordinator.fill()
	}
}

// job is one queued unit of work. done is buffered so a worker never
// blocks handing back a result after the handler has given up.
type job struct {
	ctx  context.Context
	run  func(ctx context.Context) ([]byte, error)
	done chan jobResult
}

type jobResult struct {
	body []byte
	err  error
}

// Server is the nbserve core: worker pool, result store, metrics, and the
// HTTP handler. Create with New, serve via Handler, stop with Close.
type Server struct {
	cfg   Config
	queue chan *job
	wg    sync.WaitGroup
	store store.Store
	met   *metrics

	// closeMu serializes enqueue against Close: senders hold the read
	// lock while sending, Close flips closed under the write lock before
	// closing the channel, so an enqueue racing shutdown answers a clean
	// 503 instead of panicking on a send to a closed channel.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once

	// Sweep-job tracking for /v1/verify/sweep and the /v1/jobs endpoints.
	// sweepCtx parents every runner so Close can cancel and join them
	// (sweepWg) before the store shuts down.
	sweepMu     sync.Mutex
	sweeps      map[string]*sweepJob
	sweepByKey  map[string]*sweepJob
	sweepSeq    int
	sweepWg     sync.WaitGroup
	sweepCtx    context.Context
	sweepCancel context.CancelFunc
}

// batchOp is the metrics key for /v1/verify/batch (it is not an endpoint
// of its own — it fans items through verifyEndpoint).
const batchOp = "verify_batch"

// opNames lists every metrics endpoint key: the registered endpoints plus
// the batch, sweep and design endpoints.
func opNames() []string {
	names := make([]string, 0, len(endpoints)+3)
	for _, e := range endpoints {
		names = append(names, e.op)
	}
	return append(names, batchOp, sweepOp, designOp)
}

// New starts cfg.Workers executor goroutines and returns the server.
func New(cfg Config) *Server {
	cfg.fill()
	st := cfg.Store
	if st == nil {
		st = store.NewMemory(cfg.CacheEntries)
	}
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *job, cfg.QueueDepth),
		store:      st,
		met:        newMetrics(opNames()),
		sweeps:     make(map[string]*sweepJob),
		sweepByKey: make(map[string]*sweepJob),
	}
	s.sweepCtx, s.sweepCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting jobs, waits for queued and in-flight jobs to
// finish, joins all workers, and closes the result store (flushing the
// persistent backend's log). Call after the HTTP server has been shut
// down (http.Server.Shutdown already waits out in-flight handlers, which
// in turn wait on their jobs, so the queue is quiet by then; Close is the
// backstop that makes the drain unconditional).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		s.closeMu.Unlock()
		// Cancel and join sweep runners first: they write checkpoints and
		// results through the store, which closes last.
		s.sweepCancel()
		s.sweepWg.Wait()
		close(s.queue)
		s.wg.Wait()
		s.store.Close()
	})
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		// A job whose deadline elapsed while queued is not worth starting.
		if err := j.ctx.Err(); err != nil {
			s.met.queueDepth.Add(-1)
			j.done <- jobResult{err: err}
			continue
		}
		start := time.Now()
		body, err := j.run(j.ctx)
		s.met.observeJob(time.Since(start).Microseconds())
		s.met.queueDepth.Add(-1)
		j.done <- jobResult{body: body, err: err}
	}
}

// enqueue errors: the queue is full (caller answers 429) or the server
// is shutting down (503).
var (
	errQueueFull     = errors.New("job queue full")
	errServerClosing = errors.New("server shutting down")
)

// enqueue submits a job without blocking; a non-nil error names why the
// job was not accepted.
func (s *Server) enqueue(j *job) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		s.met.jobsRejected.Add(1)
		return errServerClosing
	}
	s.met.queueDepth.Add(1)
	select {
	case s.queue <- j:
		return nil
	default:
		s.met.queueDepth.Add(-1)
		s.met.jobsRejected.Add(1)
		return errQueueFull
	}
}

// timeoutFor resolves a client-requested deadline against the configured
// default and cap.
func (s *Server) timeoutFor(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// Handler returns the nbserve routing table, derived from the endpoint
// registry plus the batch and introspection endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, e := range endpoints {
		mux.HandleFunc("/v1/"+e.op, s.jobHandler(e))
	}
	mux.HandleFunc("/v1/verify/batch", s.batchHandler)
	mux.HandleFunc("POST /v1/design", s.designHandler)
	mux.HandleFunc("POST /v1/verify/sweep", s.sweepHandler)
	mux.HandleFunc("GET /v1/jobs/{id}", s.jobStatusHandler)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.jobEventsHandler)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.met.snapshot(s.store.Len()))
	})
	return mux
}

// errStatus maps a job error to its HTTP status and message. Shared by the
// single-request handler (response status) and the batch handler
// (per-item status).
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded: " + err.Error()
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for logs only.
		return http.StatusServiceUnavailable, "request cancelled"
	case errors.As(err, &errBadRequest{}):
		return http.StatusBadRequest, err.Error()
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// jobHandler wires one POST endpoint through the full pipeline:
// decode → prepare → store lookup → enqueue (429 on overflow) → wait
// under the request deadline → store fill → respond. The
// X-Nbserve-Cache header says whether the body came from the result store
// ("hit") or a fresh job ("miss").
func (s *Server) jobHandler(e *endpoint) http.HandlerFunc {
	em := s.met.endpoints[e.op]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Add(1)
		if r.Method != http.MethodPost {
			em.errors.Add(1)
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var q api.Request
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			em.errors.Add(1)
			writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
			return
		}
		if err := e.prepare(&q); err != nil {
			em.errors.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}

		key := e.key(&q)
		if !q.NoCache {
			if body, ok := s.store.Get(key); ok {
				em.cacheHits.Add(1)
				s.met.storeHits.Add(1)
				writeJSON(w, http.StatusOK, "hit", body)
				return
			}
			s.met.storeMisses.Add(1)
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(q.TimeoutMs))
		defer cancel()

		j := &job{ctx: ctx, done: make(chan jobResult, 1), run: func(ctx context.Context) ([]byte, error) {
			return e.body(ctx, &q)
		}}
		if err := s.enqueue(j); err != nil {
			em.errors.Add(1)
			if err == errQueueFull {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, err.Error())
			} else {
				writeError(w, http.StatusServiceUnavailable, err.Error())
			}
			return
		}

		// Wait for the result OR the request deadline — never just the
		// result: a job whose deadline passes while still queued must get
		// its 504 now, not after the whole queue ahead of it drains. The
		// worker that eventually dequeues the abandoned job sees the dead
		// ctx, skips the run, decrements the queue gauge, and its handback
		// lands in the buffered done channel without blocking.
		var res jobResult
		select {
		case res = <-j.done:
		case <-ctx.Done():
			res = jobResult{err: ctx.Err()}
		}
		if res.err != nil {
			em.errors.Add(1)
			status, msg := errStatus(res.err)
			writeError(w, status, msg)
			return
		}
		if !q.NoCache {
			s.store.Put(key, res.body)
			s.met.storePuts.Add(1)
		}
		writeJSON(w, http.StatusOK, "miss", res.body)
	}
}

func writeJSON(w http.ResponseWriter, status int, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Nbserve-Cache", cacheState)
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(api.ErrorReport{Error: msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}
