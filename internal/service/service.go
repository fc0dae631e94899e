// Package service exposes the full paper pipeline — parse ODEs, rewrite to
// mappable form (§7), translate to a distributed protocol (§3/§6), and
// simulate at scale (§5) — as a long-running HTTP/JSON service.
//
// Architecture: POST /v1/jobs validates and compiles the request up front,
// then either answers it from a content-addressed result cache or enqueues
// it on a bounded queue feeding a worker pool; workers route execution
// through harness.SweepContext so DELETE /v1/jobs/{id} can abort in-flight
// sweeps at a period boundary. The cache is sound because sweep output is
// byte-identical for a fixed normalized spec (seed derivation, the agent
// engine's shard count K, and the asyncnet mode are all part of the
// cache key); wallclock-mode asyncnet is the one exception — it
// schedules real goroutines against wall-clock timers — and is therefore
// never cached, while the default virtual mode runs on a deterministic
// discrete-event scheduler and caches like every other engine.
//
// Durability is pluggable (internal/store): job lifecycle transitions are
// journaled to the configured Store and completed results are written as
// content-addressed blobs before their job is marked done, so with the
// file backend a restarted daemon recovers its job list, warms the LRU
// from disk, serves previously computed results without re-simulating,
// and marks jobs the crash caught mid-run as failed-restartable. An
// identical cacheable spec POSTed while its twin is still in flight
// coalesces onto the in-flight job (single-flight deduplication) instead
// of running a second sweep.
//
// The read side is an encode-once data plane (result.go): a completed
// result is marshaled exactly once, and the canonical bytes — the same
// buffer the blob store persists — back every response afterwards.
// GET /v1/results/{key} copies them, job statuses splice them in as raw
// JSON, stream replays copy pre-rendered rows memoized on the blob, and
// gzip responses copy a lazily-built compressed variant (persisted as a
// sibling blob). The content address doubles as a strong ETag, so
// If-None-Match revalidations answer 304 before any result-sized buffer
// is touched; results evicted from the LRU stream from disk through the
// store's reader without whole-blob buffering.
//
// Endpoints:
//
//	POST   /v1/compile             ODE source → taxonomy, actions, expected flow
//	POST   /v1/jobs                enqueue a sweep (or answer it from cache/disk)
//	GET    /v1/jobs                list job statuses
//	GET    /v1/jobs/{id}           status + result
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/stream    NDJSON per-period counts as the run progresses
//	GET    /v1/jobs/{id}/figure.svg  rendered trajectory (internal/plot)
//	GET    /v1/jobs/{id}/trace.svg   lifecycle waterfall (internal/plot)
//	GET    /v1/slo                 burn-rate SLO states + windowed latency quantiles
//	GET    /v1/results/{key}       fetch a persisted result by cache key
//	GET    /v1/stats               cache/queue/worker/store counters
//	GET    /v1/healthz             liveness
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odeproto/internal/obs"
	"odeproto/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of jobs simulated concurrently (default 2).
	Workers int
	// QueueDepth bounds the jobs waiting to run (default 64); submissions
	// beyond it are rejected with 429 and a Retry-After derived from the
	// windowed p95 queue wait (admission control).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (default 256
	// results, LRU eviction).
	CacheSize int
	// SweepWorkers is the harness worker-pool size each job's sweep uses
	// (0 = all cores).
	SweepWorkers int
	// Limits bound a single job's size; zero fields take the defaults.
	Limits Limits
	// Store persists job lifecycle records and completed results; nil
	// selects the in-memory (non-durable) backend. The caller owns the
	// store's lifetime and must Close it only after Server.Close returns
	// (shutdown journals the cancellation of still-queued jobs).
	Store store.Store
	// ResumeInterrupted resubmits jobs that recovery found queued or
	// mid-run at crash time (their specs are preserved in the WAL)
	// instead of leaving the retry to the client. The interrupted job
	// still reports failed, with its error naming the resubmission.
	ResumeInterrupted bool
	// JobIDPrefix is prepended to every generated job ID ("n1-" turns
	// j000042 into n1-j000042). A cluster front-end (internal/cluster)
	// gives each node a distinct prefix so any node can route a job ID
	// back to the node that owns the job; standalone daemons leave it
	// empty and keep the historical format. Recovery strips the same
	// prefix when continuing the ID sequence past recovered jobs.
	JobIDPrefix string
	// Metrics is the obs registry every service counter lives in —
	// /v1/stats reads the same values /metrics renders. nil gets a
	// private registry (the metrics still exist, just unscraped).
	Metrics *obs.Registry
	// Logger receives the structured serving-path log (submissions,
	// completions with their trace, store faults). nil discards.
	Logger *slog.Logger
	// Node names this daemon in traces and log records (a cluster
	// front-end passes the node's self address; standalone daemons may
	// leave it empty).
	Node string
	// SLO configures the burn-rate SLO evaluator (GET /v1/slo, the
	// odeproto_slo_* gauges, and the 429 Retry-After hint). nil takes
	// DefaultSLOConfig; a non-nil config must already be validated
	// (ParseSLOConfig validates, the -slo-config flag path).
	SLO *SLOConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.Limits.MaxN == 0 {
		c.Limits.MaxN = defaultLimits.MaxN
	}
	if c.Limits.MaxPeriods == 0 {
		c.Limits.MaxPeriods = defaultLimits.MaxPeriods
	}
	if c.Limits.MaxSeeds == 0 {
		c.Limits.MaxSeeds = defaultLimits.MaxSeeds
	}
	if c.Limits.MaxShards == 0 {
		c.Limits.MaxShards = defaultLimits.MaxShards
	}
	if c.Limits.MaxRows == 0 {
		c.Limits.MaxRows = defaultLimits.MaxRows
	}
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Server is the compile-and-simulate service: job store, bounded queue,
// worker pool, content-addressed result cache, and the durable store
// behind it.
type Server struct {
	cfg   Config
	cache *resultCache
	store store.Store

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for listing
	nextID   int
	inflight map[string]*Job // cache key → non-terminal job, for single-flight dedup

	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	closeOnce  sync.Once
	closed     atomic.Bool

	met     *serviceMetrics
	reg     *obs.Registry
	log     *slog.Logger
	slo     *sloEvaluator
	warmed  int // results loaded from disk into the LRU at startup
	resumed int // interrupted jobs auto-resubmitted at startup
}

var errNotFound = errors.New("job not found")

// New builds a Server, recovers any state the configured store journaled
// before a restart, and starts the worker pool. Call Close to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	met := newServiceMetrics(cfg.Metrics)
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheSize, met.cacheHits, met.cacheMisses),
		store:      cfg.Store,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		met:        met,
		reg:        cfg.Metrics,
		log:        cfg.Logger,
	}
	sloCfg := DefaultSLOConfig()
	if cfg.SLO != nil {
		sloCfg = *cfg.SLO
	}
	s.slo = newSLOEvaluator(sloCfg, met, cfg.Metrics)
	s.registerGauges(cfg.Metrics)
	store.RegisterMetrics(cfg.Metrics, s.store)
	restartable := s.recoverJobs()
	if cfg.ResumeInterrupted {
		s.resumeInterrupted(restartable)
	}
	s.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.sloLoop()
	return s
}

// Close cancels every in-flight job, stops the workers, and finishes any
// still-queued jobs as cancelled — leaving a queued job in limbo would
// hold its /stream responses open forever and stall the HTTP server's
// graceful shutdown behind them. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true) // reject new submissions first
		s.baseCancel()
		s.wg.Wait()
		for {
			select {
			case job := <-s.queue:
				job.mu.Lock()
				if job.status != StatusQueued {
					job.mu.Unlock()
					continue
				}
				job.status = StatusCancelled
				job.errMsg = "service shut down before the job started"
				job.finished = time.Now()
				job.mu.Unlock()
				job.traceAdd(obs.StageResponded)
				job.completeStream(StatusCancelled)
				s.journal(store.JobRecord{Op: store.OpAborted, ID: job.ID, Key: job.Key, Trace: job.traceID(),
					Error: "service shut down before the job started", FinishedAt: time.Now().UnixNano()})
				s.logCompletion(job)
				s.dropInflight(job)
			default:
				return
			}
		}
	})
}

// SweepsExecuted reports how many sweeps actually simulated (cache hits
// do not count) — the run counter the cache tests and the determinism
// acceptance test key on.
func (s *Server) SweepsExecuted() int64 { return s.met.sweeps.Value() }

// Metrics returns the registry the service records into (the one Config
// supplied, or the private default).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// job looks up a job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submit validates, compiles, and registers a job. Hits in the LRU or the
// durable result store return an already-done job; an identical cacheable
// spec still in flight returns the in-flight twin (single-flight
// deduplication); everything else is enqueued. A full queue returns an
// error that the HTTP layer maps to 503.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.submitTraced(spec, "")
}

// submitTraced is Submit with an inherited trace ID (empty or malformed
// IDs mint a fresh one) — the HTTP layer passes the X-Odeproto-Trace
// header through here so a forwarded job keeps the ID the first node
// minted.
func (s *Server) submitTraced(spec JobSpec, traceID string) (*Job, error) {
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	tr := obs.NewTrace(traceID, s.cfg.Node)
	created := time.Now()
	tr.Add(obs.StageQueued, created)
	comp, err := spec.normalize(s.cfg.Limits)
	if err != nil {
		return nil, &inputError{err}
	}
	tr.Add(obs.StageCompiled, time.Now())
	key := spec.cacheKey(comp)

	job := &Job{
		Key:     key,
		spec:    spec,
		comp:    comp,
		status:  StatusQueued,
		created: created,
		trace:   tr,
		rows:    newRowBuffer(),
		done:    make(chan struct{}),
	}

	if spec.cacheable() {
		if blob, ok := s.lookupResult(key); ok {
			job.status = StatusDone
			job.result = blob
			job.cached = true
			job.started = job.created
			job.finished = time.Now()
			tr.Add(obs.StageResponded, job.finished)
			// Deferred replay: the rows render (from the blob's memoized
			// stream render) only if someone actually streams this job.
			job.rows.replayBlob(blob, StatusDone)
			close(job.done)
			s.register(job)
			s.met.submitted.Inc()
			// One snapshot-style record, not a submitted/done pair: this is
			// the hot path (no sweep runs), and each append is an fsync.
			s.journal(store.JobRecord{Op: store.OpDone, ID: job.ID, Key: key,
				Spec: specJSON(&spec), Cached: true, Trace: tr.ID,
				SubmittedAt: job.created.UnixNano(), FinishedAt: job.finished.UnixNano()})
			s.logCompletion(job)
			return job, nil
		}
	}

	// Twin check, registration, and enqueue form one critical section: a
	// coalescing submitter must never be handed a job that a concurrent
	// queue-full withdrawal is about to discard.
	s.mu.Lock()
	if spec.cacheable() {
		if twin, ok := s.inflight[key]; ok {
			// The twin may be a hair past finish() with its inflight entry
			// not yet dropped; coalescing onto a terminal job would hand
			// this submitter a cancelled/failed result it never asked to
			// share. Only live twins coalesce — a dead one is overwritten
			// below (its own dropInflight compares pointers, so it cannot
			// remove our claim later).
			twin.mu.Lock()
			live := twin.status == StatusQueued || twin.status == StatusRunning
			twin.mu.Unlock()
			if live {
				s.mu.Unlock()
				s.met.coalesced.Inc()
				s.log.Info("job coalesced onto in-flight twin",
					"trace", tr.ID, "twin", twin.ID, "twin_trace", twin.traceID(), "key", key)
				return twin, nil
			}
		}
	}
	s.nextID++
	job.ID = fmt.Sprintf("%sj%06d", s.cfg.JobIDPrefix, s.nextID)
	select {
	case s.queue <- job:
	default:
		// Bounded queue full: the job was never visible, reuse its ID.
		s.nextID--
		s.mu.Unlock()
		return nil, errQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if spec.cacheable() {
		s.inflight[key] = job
	}
	s.mu.Unlock()

	// Journal after the enqueue so a full queue leaves no ghost record.
	// The worker's own records may interleave before this one; WAL replay
	// merges by rank, and the worker stamps the key on every record, so
	// even a crash that loses this append leaves the result reachable.
	s.met.submitted.Inc()
	s.journal(store.JobRecord{Op: store.OpSubmitted, ID: job.ID, Key: key,
		Spec: specJSON(&spec), Trace: tr.ID, SubmittedAt: job.created.UnixNano()})
	s.log.Info("job queued", "trace", tr.ID, "job", job.ID, "key", key,
		"engine", spec.Engine, "mode", spec.Mode, "n", spec.N, "periods", spec.Periods, "seeds", spec.Seeds)
	return job, nil
}

var (
	// errQueueFull is admission control: the bounded queue is at
	// capacity, mapped to 429 + Retry-After (retrying can succeed).
	errQueueFull = errors.New("job queue is full")
	// errShuttingDown is terminal for this process, mapped to 503
	// (retrying against this node cannot succeed).
	errShuttingDown = errors.New("service is shutting down")
)

// register assigns an ID and stores an already-terminal job (the
// done-on-arrival cache-hit path; queued jobs register inside Submit's
// enqueue critical section).
func (s *Server) register(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	job.ID = fmt.Sprintf("%sj%06d", s.cfg.JobIDPrefix, s.nextID)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
}

// RouteKey computes the content address Submit would file spec under —
// the same normalize-and-hash pipeline, without enqueueing anything. A
// cluster front-end shards on this key: the routing decision and the
// cache key must be the same hash, or two nodes could each run the same
// sweep. Validation failures come back as the 400-mapped error Submit
// would return.
func (s *Server) RouteKey(spec JobSpec) (string, error) {
	comp, err := spec.normalize(s.cfg.Limits)
	if err != nil {
		return "", &inputError{err}
	}
	return spec.cacheKey(comp), nil
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	Jobs           map[Status]int `json:"jobs"`
	QueueDepth     int            `json:"queue_depth"`
	QueueCapacity  int            `json:"queue_capacity"`
	Workers        int            `json:"workers"`
	SweepsExecuted int64          `json:"sweeps_executed"`
	// CoalescedJobs counts submissions answered by returning an identical
	// in-flight job (single-flight deduplication).
	CoalescedJobs int64 `json:"coalesced_jobs"`
	// RejectedJobs counts submissions rejected with 429 because the
	// bounded queue was full (admission control).
	RejectedJobs int64      `json:"rejected_jobs"`
	Cache        CacheStats `json:"cache"`
	// ResultDiskHits counts LRU misses answered from the durable result
	// store (each also appears in the cache miss counter).
	ResultDiskHits int64 `json:"result_disk_hits"`
	// WarmedResults counts results loaded from disk into the LRU at
	// startup.
	WarmedResults int `json:"warmed_results"`
	// ResumedJobs counts interrupted jobs the daemon resubmitted itself
	// at startup (Config.ResumeInterrupted / odeprotod -resume-interrupted).
	ResumedJobs int `json:"resumed_jobs"`
	// StoreErrors counts store faults the service absorbed: failed WAL
	// appends (journaling is best-effort) and result blobs that exist but
	// cannot be read or decoded.
	StoreErrors int64 `json:"store_errors"`
	// ResultEncodesSaved counts result reads served from the encode-once
	// canonical bytes — cache-hit result GETs (304s included) and job
	// statuses spliced from the shared buffer — each one a JSON marshal
	// the pre-encode-once service would have paid per request.
	ResultEncodesSaved int64 `json:"result_encodes_saved"`
	// ResultBytesServed counts result payload bytes written to clients by
	// the result data plane (compressed size for gzip responses).
	ResultBytesServed int64       `json:"result_bytes_served"`
	Store             store.Stats `json:"store"`
}

// Stats returns a snapshot of the service counters (the body of GET
// /v1/stats).
func (s *Server) Stats() Stats { return s.stats() }

// stats assembles the /v1/stats body as a thin view over the obs
// registry: every counter below is the same Counter /metrics renders, so
// the two surfaces cannot disagree.
func (s *Server) stats() Stats {
	st := Stats{
		Jobs:               make(map[Status]int),
		QueueCapacity:      s.cfg.QueueDepth,
		Workers:            s.cfg.Workers,
		SweepsExecuted:     s.met.sweeps.Value(),
		CoalescedJobs:      s.met.coalesced.Value(),
		RejectedJobs:       s.met.rejected.Value(),
		Cache:              s.cache.stats(),
		ResultDiskHits:     s.met.diskHits.Value(),
		WarmedResults:      s.warmed,
		ResumedJobs:        s.resumed,
		StoreErrors:        s.met.storeErrs.Value(),
		ResultEncodesSaved: s.met.encodesSaved.Value(),
		ResultBytesServed:  s.met.bytesServed.Value(),
		Store:              s.store.Stats(),
	}
	s.mu.Lock()
	for _, id := range s.order {
		st.Jobs[s.jobs[id].Snapshot(false).Status]++
	}
	s.mu.Unlock()
	st.QueueDepth = len(s.queue)
	return st
}

// inputError marks validation/compile failures (HTTP 400).
type inputError struct{ err error }

func (e *inputError) Error() string { return e.err.Error() }
func (e *inputError) Unwrap() error { return e.err }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/figure.svg", s.handleFigure)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/trace.svg", s.handleTraceSVG)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// marshalNoEscape is json.Marshal without HTML escaping (ODE sources
// contain '<' and '>'), the encoding every JSON response body uses. The
// Encoder's trailing newline is stripped; writeJSON re-appends it.
func marshalNoEscape(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	return b[:len(b)-1], nil
}

// writeJSON buffers the encoded body so every JSON response carries an
// exact Content-Length instead of falling into chunked transfer encoding
// (the newline terminator matches the historical Encoder framing).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := marshalNoEscape(v)
	if err != nil {
		// Nothing body-safe to send: the value failed to encode.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	comp, err := compilePipeline(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse(req, comp))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeBody(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.submitTraced(spec, r.Header.Get(obs.TraceHeader))
	switch {
	case err == nil:
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errQueueFull):
		// Admission control: tell the client when a retry has a chance —
		// the windowed p95 queue wait is how long jobs currently take to
		// reach a worker, so retrying sooner meets the same full queue.
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.slo.retryAfterSeconds(time.Now())))
		writeError(w, http.StatusTooManyRequests, err)
		return
	default:
		var ie *inputError
		if errors.As(err, &ie) {
			writeError(w, http.StatusBadRequest, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	st := job.Snapshot(false)
	if st.Trace != "" {
		w.Header().Set(obs.TraceHeader, st.Trace)
	}
	// 200 means served from the cache or the result store, no work
	// pending. A fresh job that a worker already finished by this
	// snapshot is still a 202, so the status does not depend on timing.
	status := http.StatusAccepted
	if st.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot(false)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound)
		return
	}
	st := s.snapshotJob(job, true)
	if len(st.resultRaw) > 0 {
		// The result portion of this response is the canonical buffer,
		// spliced verbatim — no per-request marshal of the decoded struct.
		s.met.encodesSaved.Inc()
		s.met.bytesServed.Add(int64(len(st.resultRaw)))
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, errNotFound):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusConflict, err)
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound)
		return
	}
	// Render any deferred replay (cache hits, recovered jobs) before the
	// first wait: only jobs someone actually streams pay the row render.
	job.rows.materialize()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx := r.Context()
	stop := context.AfterFunc(ctx, job.rows.broadcast)
	defer stop()

	sent := 0
	for {
		rows, closed := job.rows.wait(sent, func() bool { return ctx.Err() != nil })
		if ctx.Err() != nil {
			return
		}
		for ; sent < len(rows); sent++ {
			// One write per row: every row is rendered with its own trailing
			// '\n' (renderRow), so no reader ever appends to a shared buffer
			// — and flush-per-row streaming pays half the syscalls.
			if _, err := w.Write(rows[sent]); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if closed && sent == len(rows) {
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}
