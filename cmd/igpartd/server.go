package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/fault"
	"igpart/internal/jobs"
	"igpart/internal/obs"
	"igpart/internal/service"
)

// mode is what the process currently serves behind its one route
// table: the local engine, the cluster coordinator, or a standby
// coordinator waiting for the leadership lease. All three answer the
// probes.
type mode interface {
	live() any
	// ready returns the /readyz status code and payload.
	ready(ctx context.Context) (int, any)
}

// leader is a mode that serves the job API. A standby is not one: until
// it takes over, every request but the probes answers 503 + Retry-After.
type leader interface {
	mode
	// submit accepts one job whose netlist the handler already loaded.
	submit(req *submitRequest, h *igpart.Netlist) (job, error)
	// submitDelta accepts an ECO delta — the PATCH body as sent —
	// against a finished job.
	submitDelta(ctx context.Context, baseID string, body json.RawMessage) (job, error)
	get(id string) (job, bool)
	metrics(ctx context.Context) any
}

// batcher is a leader that takes /v1/batches: the coordinator.
type batcher interface {
	submitBatch(reqs []submitRequest, hs []*igpart.Netlist) (*cluster.Batch, error)
}

// job is one tracked job as the handlers see it.
type job interface {
	ID() string
	Done() <-chan struct{}
	Cancel()
	// view is the job's wire form.
	view() any
}

// serverConfig carries the HTTP-layer knobs (the engine and the
// coordinator have their own).
type serverConfig struct {
	// dataDir is the root for server-side netlist paths in submissions;
	// empty disables the "path" field entirely.
	dataDir string
	// maxBody bounds the request body size in bytes.
	maxBody int64
	// inj arms the transport-layer fault points (io.read-err in netlist
	// loading); nil disarms them.
	inj *fault.Injector
	// poll serves ?wait= on GET /v1/jobs/{id}; nil gets one capped at
	// maxWait that no drain ends.
	poll *longPoll
}

// server is igpartd's one handler set, in every mode. The route table
// is fixed; set swaps the mode behind it when a standby takes over.
type server struct {
	cfg serverConfig
	mux *http.ServeMux
	cur atomic.Pointer[mode]
}

func newServer(m mode, cfg serverConfig) *server {
	if cfg.maxBody <= 0 {
		cfg.maxBody = 32 << 20
	}
	if cfg.poll == nil {
		cfg.poll = newLongPoll(0)
	}
	s := &server{cfg: cfg, mux: http.NewServeMux()}
	s.set(m)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("PATCH /v1/jobs/{id}", s.handlePatch)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	if _, single := m.(engineMode); !single {
		// A coordinator route; a standby may become a coordinator.
		s.mux.HandleFunc("POST /v1/batches", s.handleBatch)
	}
	s.mux.HandleFunc("GET /healthz", s.handleLive)
	s.mux.HandleFunc("GET /livez", s.handleLive)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// set swaps the mode behind the route table; requests already past the
// swap finish on the old one.
func (s *server) set(m mode) { s.cur.Store(&m) }

func (s *server) mode() mode { return *s.cur.Load() }

// leader returns the current mode as a leader. ServeHTTP lets no
// request reach a job handler while the mode is not one, and a standby
// only ever becomes a leader, never the reverse.
func (s *server) leader() leader { return s.mode().(leader) }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.mode().(leader); !ok && !isProbe(r) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "standby coordinator: not the leader yet; retry after takeover")
		return
	}
	s.mux.ServeHTTP(w, r)
}

func isProbe(r *http.Request) bool {
	switch r.URL.Path {
	case "/healthz", "/livez", "/readyz":
		return r.Method == http.MethodGet || r.Method == http.MethodHead
	}
	return false
}

// submitRequest is the POST /v1/jobs payload. Exactly one netlist
// source must be set: an inline Bookshelf pair or a server-side path
// (relative to the daemon's -data directory).
type submitRequest struct {
	Path      string         `json:"path,omitempty"`
	Bookshelf *bookshelfPair `json:"bookshelf,omitempty"`

	Algo            string  `json:"algo,omitempty"`
	Scheme          string  `json:"scheme,omitempty"`
	Threshold       int     `json:"threshold,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	BlockSize       int     `json:"block_size,omitempty"`
	Parallelism     int     `json:"parallelism,omitempty"`
	Levels          int     `json:"levels,omitempty"`
	CoarseningRatio float64 `json:"coarsening_ratio,omitempty"`
	TimeoutMS       int64   `json:"timeout_ms,omitempty"`

	// Balanced k-way options (algo "kway" / "kway-spectral"): part count,
	// imbalance budget, and named fixed-module pins.
	K   int             `json:"k,omitempty"`
	Eps float64         `json:"eps,omitempty"`
	Fix []igpart.FixPin `json:"fix,omitempty"`

	// Portfolio options (algo "portfolio"): race budget and acceptance
	// ratio-cut bound.
	BudgetMS int64   `json:"budget_ms,omitempty"`
	Accept   float64 `json:"accept,omitempty"`
}

// bookshelfPair is an inline UCLA Bookshelf netlist.
type bookshelfPair struct {
	Nodes string `json:"nodes"`
	Nets  string `json:"nets"`
}

// batchRequest is the POST /v1/batches payload.
type batchRequest struct {
	Jobs []submitRequest `json:"jobs"`
}

// maxBatchJobs bounds one /v1/batches request; beyond this the client
// should split the batch (the limit exists to bound journal write
// bursts and the streamed response's lifetime, not memory).
const maxBatchJobs = 256

// Errors the handlers and modes map onto statuses (see fail).
var (
	// errTransientIO marks a netlist read that failed for reasons the
	// caller can retry, as opposed to a malformed request.
	errTransientIO = errors.New("transient read error loading netlist")
	// errJournal marks a coordinator submission its journal could not
	// record: the job was not accepted.
	errJournal = errors.New("journal write failed")
	// errBatchIntake marks a batch the coordinator stopped accepting
	// part-way; the accepted prefix keeps running.
	errBatchIntake = errors.New("batch intake failed")
)

// fail answers err with its status: the one error→status table.
// Anything unclassified is the request's fault.
func fail(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, errTransientIO):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrShutdown), errors.Is(err, errBatchIntake):
		status = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrUnknownBase):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrNotWarmStartable):
		status = http.StatusConflict
	case errors.Is(err, errJournal):
		status = http.StatusInternalServerError
	case cluster.IsNodeError(err):
		status = http.StatusBadGateway
	}
	httpError(w, status, err.Error())
}

// decode parses a JSON request body into v under the size cap,
// rejecting unknown fields. On failure it has answered (413 or 400).
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

// loadNetlist resolves a submission's netlist source. The coordinator
// loads it too, then inlines it before forwarding, so backends need no
// shared filesystem.
func loadNetlist(req *submitRequest, dataDir string, inj *fault.Injector) (*igpart.Netlist, error) {
	if inj.Active(fault.IOReadErr) {
		return nil, errTransientIO
	}
	switch {
	case req.Path != "" && req.Bookshelf != nil:
		return nil, errors.New("set exactly one of \"path\" and \"bookshelf\"")
	case req.Bookshelf != nil:
		return igpart.ReadBookshelf(
			strings.NewReader(req.Bookshelf.Nodes),
			strings.NewReader(req.Bookshelf.Nets))
	case req.Path != "":
		if dataDir == "" {
			return nil, errors.New("server-side paths are disabled (daemon started without -data)")
		}
		// filepath.IsLocal rejects absolute paths and any ".." escape, so
		// a request cannot read outside the data directory.
		if !filepath.IsLocal(req.Path) {
			return nil, fmt.Errorf("path %q is not local to the data directory", req.Path)
		}
		return igpart.Load(filepath.Join(dataDir, req.Path))
	default:
		return nil, errors.New("request carries no netlist: set \"path\" or \"bookshelf\"")
	}
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !s.decode(w, r, &req) {
		return
	}
	h, err := loadNetlist(&req, s.cfg.dataDir, s.cfg.inj)
	if err != nil {
		fail(w, err)
		return
	}
	j, err := s.leader().submit(&req, h)
	acceptJob(w, j, err)
}

// handlePatch submits an ECO delta against a finished job; the answer
// is a brand-new job (202) polled like any other.
func (s *server) handlePatch(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if !s.decode(w, r, &body) {
		return
	}
	j, err := s.leader().submitDelta(r.Context(), r.PathValue("id"), body)
	acceptJob(w, j, err)
}

// acceptJob answers a submission: 202 with the new job and its
// Location, or the error's status.
func acceptJob(w http.ResponseWriter, j job, err error) {
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.leader().get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !s.cfg.poll.wait(w, r, j.Done()) {
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	// Resolve the job once and cancel through it: a second lookup after
	// the cancel could miss if MaxFinished pruning evicted it between.
	j, ok := s.leader().get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.view())
}

// handleLive is the liveness probe: the process is up and serving, say
// 200 — even when degraded, because restarting a degraded daemon loses
// its queue for no gain. (/healthz is an alias so pre-split monitoring
// keeps working.)
func (s *server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mode().live())
}

// handleReady is the readiness probe: 503 tells the load balancer to
// route new work elsewhere while the mode cannot take it.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	code, v := s.mode().ready(r.Context())
	writeJSON(w, code, v)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.leader().metrics(r.Context()))
}

// batchEvent is one NDJSON line of the streamed batch response. The
// first line is event "accepted" (job IDs in submission order); then
// one "job" event per completion as it happens, carrying the job's obs
// span (wall time from acceptance to completion, attempt/resubmit
// counters); finally one "batch" summary event.
type batchEvent struct {
	Event string `json:"event"`
	Batch string `json:"batch,omitempty"`
	// Accepted event: the job IDs.
	Jobs []string `json:"jobs,omitempty"`
	// Job event: the completed job's snapshot fields.
	ID        string          `json:"id,omitempty"`
	State     string          `json:"state,omitempty"`
	Backend   string          `json:"backend,omitempty"`
	Attempts  int             `json:"attempts,omitempty"`
	Resubmits int             `json:"resubmits,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Span is the obs stage for this job (or, on the summary event, the
	// whole batch): name, wall time, counters.
	Span *obs.Stage `json:"span,omitempty"`
	// Batch summary event tallies.
	Done   int `json:"done,omitempty"`
	Failed int `json:"failed,omitempty"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "batch carries no jobs")
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d jobs exceeds the %d-job limit", len(req.Jobs), maxBatchJobs))
		return
	}
	// Resolve every netlist before accepting anything: a batch is
	// all-or-nothing at intake, so a typo in job 17 cannot strand 16
	// journaled jobs the client thinks were rejected.
	hs := make([]*igpart.Netlist, len(req.Jobs))
	for i := range req.Jobs {
		h, err := loadNetlist(&req.Jobs[i], s.cfg.dataDir, s.cfg.inj)
		if err != nil {
			fail(w, fmt.Errorf("job %d: %w", i, err))
			return
		}
		hs[i] = h
	}
	batch, err := s.leader().(batcher).submitBatch(req.Jobs, hs)
	if err != nil {
		fail(w, err)
		return
	}

	// From here on the response is a chunked NDJSON stream; errors can
	// only be conveyed in-band.
	tr := obs.NewTrace("batch:" + batch.ID)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusAccepted)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	emit := func(ev batchEvent) bool {
		// The server's WriteTimeout (when set) is absolute from request
		// start; push the deadline out at every event so a long batch is
		// bounded by inactivity, not total stream lifetime. Best-effort:
		// not every ResponseWriter supports it.
		rc.SetWriteDeadline(time.Now().Add(time.Minute))
		if err := json.NewEncoder(w).Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ids := make([]string, len(batch.Jobs))
	spans := make([]obs.Recorder, len(batch.Jobs))
	for i, j := range batch.Jobs {
		ids[i] = j.ID()
		spans[i] = tr.StartSpan("job:" + j.ID())
	}
	if !emit(batchEvent{Event: "accepted", Batch: batch.ID, Jobs: ids}) {
		return
	}

	// Fan the per-job completions into one stream, in completion order.
	completions := make(chan int, len(batch.Jobs))
	for i, j := range batch.Jobs {
		go func() {
			select {
			case <-j.Done():
				completions <- i
			case <-r.Context().Done():
			}
		}()
	}
	done, failed := 0, 0
	for range batch.Jobs {
		var i int
		select {
		case i = <-completions:
		case <-r.Context().Done():
			return // client went away; the jobs keep running
		}
		snap := batch.Jobs[i].Snapshot()
		sp := spans[i]
		sp.Count("attempts", int64(snap.Attempts))
		sp.Count("resubmits", int64(snap.Resubmits))
		sp.End()
		stage := tr.Report().Children[i]
		if snap.State == cluster.StateDone {
			done++
		} else {
			failed++
		}
		if !emit(batchEvent{
			Event:     "job",
			ID:        snap.ID,
			State:     snap.State,
			Backend:   snap.Backend,
			Attempts:  snap.Attempts,
			Resubmits: snap.Resubmits,
			Cached:    snap.Cached,
			Error:     snap.Err,
			Result:    snap.Result,
			Span:      &stage,
		}) {
			return
		}
	}
	root := tr.Finish()
	emit(batchEvent{Event: "batch", Batch: batch.ID, Done: done, Failed: failed, Span: &root})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("igpartd: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
