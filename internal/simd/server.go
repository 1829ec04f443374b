package simd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/simd/spec"
)

// Job states. A job is terminal in done, failed or canceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Progress is one job's live progress, fed by the worker pool's per-job
// scope (parallel.BeginScope): Done/Total track the current batch of
// simulation worlds, Worlds and Batches accumulate over the job.
type Progress struct {
	Done    int   `json:"done"`
	Total   int   `json:"total"`
	Worlds  int64 `json:"worlds"`
	Batches int64 `json:"batches"`
}

// Job is one submission. All fields are guarded by the server's mu except
// where noted.
type Job struct {
	ID        string
	Spec      spec.Spec
	Canonical []byte // canonical spec JSON
	SpecHash  string
	Key       string
	State     string
	Cached    bool
	Error     string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Progress  Progress

	// scope is the pool scope while running; Cancel reaches the pool
	// through it. Call scope methods without holding mu (lock order:
	// parallel's poolMu may be held when the progress hook takes mu).
	scope *parallel.Scope
	// done closes on terminal state (progress streamers wait on it).
	done chan struct{}
}

// JobView is the API rendering of a job.
type JobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Spec      json.RawMessage `json:"spec"`
	SpecHash  string          `json:"spec_hash"`
	Key       string          `json:"key"`
	Error     string          `json:"error,omitempty"`
	Submitted string          `json:"submitted,omitempty"`
	Started   string          `json:"started,omitempty"`
	Finished  string          `json:"finished,omitempty"`
	Progress  Progress        `json:"progress"`
}

// Options configures a Server.
type Options struct {
	// CacheDir roots the result store and the job journal.
	CacheDir string
	// Version overrides the code version in cache keys (tests); empty
	// means Version().
	Version string
}

// Server is the simd job server: a submission queue, a single runner
// draining it (one job at a time — each job already fans its worlds across
// every pool worker), and the content-addressed result store.
type Server struct {
	store   *Store
	version string

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	order   []string // submission order, for deterministic listings
	queue   []*Job
	started bool
	closed  bool

	runnerDone chan struct{}
}

// New builds a server rooted at opts.CacheDir, replaying the job journal
// so IDs and finished jobs survive restarts. Call Start to begin running
// jobs.
func New(opts Options) (*Server, error) {
	st, err := OpenStore(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	version := opts.Version
	if version == "" {
		version = Version()
	}
	s := &Server{
		store:      st,
		version:    version,
		jobs:       make(map[string]*Job),
		runnerDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	return s, nil
}

// Start launches the job runner. Idempotent; a no-op after Close.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.runner()
}

// Close stops accepting submissions, lets the in-flight job finish,
// cancels everything still queued, and waits for the runner to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.runnerDone
		}
		return
	}
	s.closed = true
	started := s.started
	now := time.Now()
	for _, job := range s.queue {
		if job.State == StateQueued { // skip jobs already cancelled via the API
			s.finishLocked(job, StateCanceled, "server shutting down", now)
		}
	}
	s.queue = nil
	var running *parallel.Scope
	for _, id := range s.order {
		if job := s.jobs[id]; job.State == StateRunning && job.scope != nil {
			running = job.scope
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if running != nil {
		// Outside mu (lock order with the pool's progress hook); the
		// in-flight batch finishes, the rest of the job does not start.
		running.Cancel()
	}
	if started {
		<-s.runnerDone
	}
}

// Store exposes the result store (selfcheck and tests read its counters).
func (s *Server) Store() *Store { return s.store }

// runner drains the queue, one job at a time.
func (s *Server) runner() {
	defer close(s.runnerDone)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		job := s.queue[0]
		s.queue = s.queue[1:]
		if job.State != StateQueued { // cancelled while queued
			s.mu.Unlock()
			continue
		}
		job.State = StateRunning
		job.Started = time.Now()
		s.mu.Unlock()
		s.runJob(job)
	}
}

// runJob executes one job under a pool progress scope and stores the
// result.
func (s *Server) runJob(job *Job) {
	scope, err := parallel.BeginScope(func(done, total int) {
		s.mu.Lock()
		job.Progress.Done, job.Progress.Total = done, total
		job.Progress.Worlds++
		s.mu.Unlock()
	})
	if err != nil {
		s.mu.Lock()
		s.finishLocked(job, StateFailed, err.Error(), time.Now())
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	job.scope = scope
	s.mu.Unlock()

	res, runErr := executeSpec(job.Spec, job.Canonical, s.version)
	stats := scope.Stats()
	canceled := scope.Canceled()
	scope.End()

	var putErr error
	var payload []byte
	if runErr == nil {
		res.Worlds = stats.Tasks
		payload, putErr = json.Marshal(res)
		if putErr == nil {
			putErr = s.store.Put(job.Key, payload)
		}
	}

	s.mu.Lock()
	job.scope = nil
	job.Progress.Worlds = stats.Tasks
	job.Progress.Batches = stats.Batches
	now := time.Now()
	switch {
	case canceled:
		s.finishLocked(job, StateCanceled, "", now)
	case runErr != nil:
		s.finishLocked(job, StateFailed, runErr.Error(), now)
	case putErr != nil:
		s.finishLocked(job, StateFailed, putErr.Error(), now)
	default:
		s.finishLocked(job, StateDone, "", now)
	}
	s.mu.Unlock()
}

// finishLocked moves a job to a terminal state and journals it (called
// with mu held).
func (s *Server) finishLocked(job *Job, state, errMsg string, now time.Time) {
	job.State = state
	job.Error = errMsg
	job.Finished = now
	close(job.done)
	s.appendJournal(job)
}

// view renders a job (called with mu held).
func (s *Server) viewLocked(job *Job) JobView {
	v := JobView{
		ID:       job.ID,
		State:    job.State,
		Cached:   job.Cached,
		Spec:     job.Canonical,
		SpecHash: job.SpecHash,
		Key:      job.Key,
		Error:    job.Error,
		Progress: job.Progress,
	}
	if !job.Submitted.IsZero() {
		v.Submitted = job.Submitted.UTC().Format(time.RFC3339Nano)
	}
	if !job.Started.IsZero() {
		v.Started = job.Started.UTC().Format(time.RFC3339Nano)
	}
	if !job.Finished.IsZero() {
		v.Finished = job.Finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// Handler returns the HTTP API:
//
//	POST /jobs              submit a spec; cache hits return a done job
//	GET  /jobs              list jobs in submission order
//	GET  /jobs/{id}         one job's state and progress
//	GET  /jobs/{id}/result  the result payload (byte-identical per key)
//	GET  /jobs/{id}/progress stream progress updates until terminal
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /catalogue         the experiment catalogue (internal/core)
//	GET  /stats             store counters, version, pool width
//	GET  /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /catalogue", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, core.Catalogue())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		n := len(s.jobs)
		queued := len(s.queue)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"version": s.version,
			"store":   s.store.Stats(),
			"jobs":    n,
			"queued":  queued,
			"pool":    map[string]any{"jobs": parallel.Jobs()},
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if sp.Experiment != "" {
		if _, ok := core.Find(sp.Experiment); !ok {
			writeJSON(w, http.StatusBadRequest,
				apiError{fmt.Sprintf("unknown experiment %q; valid: %s", sp.Experiment, core.IDList())})
			return
		}
	}
	canonical, err := sp.Canonical()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	hash, err := sp.Hash()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	key := spec.Key(hash, sp.Seed, s.version)

	seq, err := s.store.NextSeq()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	job := &Job{
		ID:        fmt.Sprintf("j%06d-%s", seq, hash[:8]),
		Spec:      sp,
		Canonical: canonical,
		SpecHash:  hash,
		Key:       key,
		Submitted: time.Now(),
		done:      make(chan struct{}),
	}

	// The cache probe: one Get per submission, so the hit/miss counters
	// read as "submissions served from cache" / "submissions simulated".
	if _, hit := s.store.Get(key); hit {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			writeJSON(w, http.StatusServiceUnavailable, apiError{"server is shutting down"})
			return
		}
		job.Cached = true
		job.State = StateDone
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.finishLocked(job, StateDone, "", time.Now())
		v := s.viewLocked(job)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{"server is shutting down"})
		return
	}
	job.State = StateQueued
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.queue = append(s.queue, job)
	s.cond.Broadcast()
	v := s.viewLocked(job)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.viewLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

// lookup returns the job for the request's {id}, or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	job := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if job == nil {
		writeJSON(w, http.StatusNotFound, apiError{fmt.Sprintf("no job %q", r.PathValue("id"))})
		return nil
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	v := s.viewLocked(job)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	state := job.State
	key := job.Key
	s.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, apiError{fmt.Sprintf("job is %s, not done", state)})
		return
	}
	// Read, not Get: downloads are not cache probes. The stored bytes are
	// served verbatim — byte-identity across identical submissions is the
	// store's contract, not a re-marshalling accident.
	payload, ok := s.store.Read(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"result evicted or corrupted; resubmit the spec"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	var last JobView
	for {
		s.mu.Lock()
		v := s.viewLocked(job)
		s.mu.Unlock()
		if v.State != last.State || v.Progress != last.Progress {
			if err := enc.Encode(v); err != nil {
				return
			}
			if canFlush {
				fl.Flush()
			}
			last = v
		}
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			return
		}
		select {
		case <-job.done:
			// Loop once more to emit the terminal view.
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	var scope *parallel.Scope
	switch job.State {
	case StateQueued:
		s.finishLocked(job, StateCanceled, "", time.Now())
	case StateRunning:
		scope = job.scope
	}
	v := s.viewLocked(job)
	s.mu.Unlock()
	if scope != nil {
		// Outside mu: the pool's progress hook takes mu while holding the
		// pool lock, so the reverse order here would deadlock. Batch
		// granularity: the in-flight batch of worlds completes, the next
		// one never starts.
		scope.Cancel()
		s.mu.Lock()
		v = s.viewLocked(job)
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, v)
}

// journalPath is the append-only record of terminal jobs, replayed at
// startup so job IDs stay resolvable across restarts.
func (s *Server) journalPath() string { return filepath.Join(s.store.Dir(), "jobs.jsonl") }

type journalRec struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Spec      json.RawMessage `json:"spec"`
	SpecHash  string          `json:"spec_hash"`
	Key       string          `json:"key"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started,omitempty"`
	Finished  time.Time       `json:"finished"`
	Progress  Progress        `json:"progress"`
}

// appendJournal writes one terminal job (called with mu held; best-effort,
// a journal write failure must not fail the job).
func (s *Server) appendJournal(job *Job) {
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	rec := journalRec{
		ID: job.ID, State: job.State, Cached: job.Cached, Spec: job.Canonical,
		SpecHash: job.SpecHash, Key: job.Key, Error: job.Error,
		Submitted: job.Submitted, Started: job.Started, Finished: job.Finished,
		Progress: job.Progress,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	f.Write(append(b, '\n'))
}

// replayJournal loads terminal jobs from a previous run. Corrupt lines
// (torn final write) are skipped, not fatal.
func (s *Server) replayJournal() error {
	f, err := os.Open(s.journalPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("simd: job journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var rec journalRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if _, dup := s.jobs[rec.ID]; dup || rec.ID == "" {
			continue
		}
		job := &Job{
			ID: rec.ID, Canonical: rec.Spec, SpecHash: rec.SpecHash, Key: rec.Key,
			State: rec.State, Cached: rec.Cached, Error: rec.Error,
			Submitted: rec.Submitted, Started: rec.Started, Finished: rec.Finished,
			Progress: rec.Progress,
			done:     make(chan struct{}),
		}
		close(job.done)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
	}
	return nil
}
