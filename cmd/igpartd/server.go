// igpartd's HTTP layer: a thin JSON façade over internal/service.
//
// Endpoints:
//
//	POST   /v1/jobs      submit a partitioning job (202 + job id)
//	GET    /v1/jobs/{id} poll status; terminal jobs carry the result.
//	                     ?wait=<duration> long-polls: the answer comes
//	                     once the job is terminal or the wait elapses
//	PATCH  /v1/jobs/{id} submit an ECO delta against a finished job
//	                     (202 + new job id, warm-started from the cache)
//	DELETE /v1/jobs/{id} request cooperative cancellation
//	GET    /healthz      liveness probe (alias of /livez)
//	GET    /livez        liveness probe: 200 while the process serves
//	GET    /readyz       readiness probe: 503 while degraded (queue
//	                     backlog or consecutive solve panics) or draining
//	GET    /metrics      JSON dump of the obs metrics registry
//
// Submission is non-blocking end to end: a full queue answers 429
// immediately (the engine's explicit-rejection backpressure), so the
// daemon never accumulates hidden in-flight work beyond its bounds.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"igpart"
	"igpart/internal/fault"
	"igpart/internal/service"
)

// serverConfig carries the HTTP-layer knobs (the engine has its own).
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

// server routes HTTP requests onto a service.Engine.
type server struct {
	engine *service.Engine
	cfg    serverConfig
	mux    *http.ServeMux
}

func newServer(engine *service.Engine, cfg serverConfig) *server {
	if cfg.maxBody <= 0 {
		cfg.maxBody = 32 << 20
	}
	if cfg.poll == nil {
		cfg.poll = newLongPoll(0)
	}
	s := &server{engine: engine, cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("PATCH /v1/jobs/{id}", s.handlePatch)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleLive)
	s.mux.HandleFunc("GET /livez", s.handleLive)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
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

// deltaRequest is the PATCH /v1/jobs/{id} payload: an ECO delta to
// apply against the identified finished job.
type deltaRequest struct {
	Delta     *igpart.NetlistDelta `json:"delta"`
	TimeoutMS int64                `json:"timeout_ms,omitempty"`
}

// bookshelfPair is an inline UCLA Bookshelf netlist.
type bookshelfPair struct {
	Nodes string `json:"nodes"`
	Nets  string `json:"nets"`
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Stack carries the recovered panic stack when the job failed
	// because a solve panicked; empty otherwise.
	Stack     string      `json:"stack,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Result    *resultJSON `json:"result,omitempty"`
}

type resultJSON struct {
	Algo         string  `json:"algo"`
	CutNets      int     `json:"cut_nets"`
	SizeU        int     `json:"size_u"`
	SizeW        int     `json:"size_w"`
	RatioCut     float64 `json:"ratio_cut"`
	Lambda2      float64 `json:"lambda2,omitempty"`
	BestRank     int     `json:"best_rank,omitempty"`
	Levels       int     `json:"levels,omitempty"`
	CoarsestNets int     `json:"coarsest_nets,omitempty"`
	// Winner names the portfolio race's winning engine (algo
	// "portfolio"); Warm and TouchedNets describe an ECO delta job's
	// warm start.
	Winner      string `json:"winner,omitempty"`
	Warm        bool   `json:"warm,omitempty"`
	TouchedNets int    `json:"touched_nets,omitempty"`
	// Sides is per-module 0/1; an explicit int array rather than
	// []igpart.Side, which (being a byte slice) would marshal as base64.
	Sides []int `json:"sides,omitempty"`
	// Balanced k-way results carry the per-module part assignment and the
	// multiway metrics instead of Sides and the bipartition metrics.
	K            int           `json:"k,omitempty"`
	Cap          int           `json:"cap,omitempty"`
	Parts        []int         `json:"parts,omitempty"`
	PartSizes    []int         `json:"part_sizes,omitempty"`
	SpanningNets int           `json:"spanning_nets,omitempty"`
	Connectivity int           `json:"connectivity,omitempty"`
	RatioValue   float64       `json:"ratio_value,omitempty"`
	Stages       *igpart.Stage `json:"stages,omitempty"`
}

func snapshotJSON(snap service.Snapshot) jobJSON {
	j := jobJSON{
		ID:        snap.ID,
		State:     string(snap.State),
		Cached:    snap.Cached,
		Submitted: snap.Submitted,
	}
	if snap.Err != nil {
		j.Error = snap.Err.Error()
		if pe, ok := fault.AsPanic(snap.Err); ok {
			j.Stack = string(pe.Stack)
		}
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		j.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		j.Finished = &t
	}
	if res := snap.Result; res != nil {
		stages := res.Stages
		sides := make([]int, len(res.Sides))
		for i, s := range res.Sides {
			sides[i] = int(s)
		}
		j.Result = &resultJSON{
			Algo:         res.Algo,
			CutNets:      res.Metrics.CutNets,
			SizeU:        res.Metrics.SizeU,
			SizeW:        res.Metrics.SizeW,
			RatioCut:     res.Metrics.RatioCut,
			Lambda2:      res.Lambda2,
			BestRank:     res.BestRank,
			Levels:       res.Levels,
			CoarsestNets: res.CoarsestNets,
			Winner:       res.Winner,
			Warm:         res.Warm,
			TouchedNets:  res.TouchedNets,
			Sides:        sides,
			K:            res.K,
			Cap:          res.Cap,
			Parts:        res.Parts,
			PartSizes:    res.PartSizes,
			SpanningNets: res.SpanningNets,
			Connectivity: res.Connectivity,
			RatioValue:   res.RatioValue,
			Stages:       &stages,
		}
	}
	return j
}

// errTransientIO marks a netlist read that failed for reasons the
// caller can retry (as opposed to a malformed request); handleSubmit
// maps it to 503.
var errTransientIO = errors.New("transient read error loading netlist")

// loadNetlist resolves the submission's netlist source.
func (s *server) loadNetlist(req *submitRequest) (*igpart.Netlist, error) {
	return loadNetlist(req, s.cfg.dataDir, s.cfg.inj)
}

// loadNetlist is shared between the single-node server and the cluster
// coordinator (which inlines the netlist before forwarding, so the
// backends need no shared filesystem).
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
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	h, err := s.loadNetlist(&req)
	if errors.Is(err, errTransientIO) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := s.engine.Submit(service.Request{
		Netlist: h,
		Options: service.Options{
			Algo:            req.Algo,
			Scheme:          req.Scheme,
			Threshold:       req.Threshold,
			Seed:            req.Seed,
			BlockSize:       req.BlockSize,
			Parallelism:     req.Parallelism,
			Levels:          req.Levels,
			CoarseningRatio: req.CoarseningRatio,
			K:               req.K,
			Eps:             req.Eps,
			Fix:             req.Fix,
			Budget:          time.Duration(req.BudgetMS) * time.Millisecond,
			Accept:          req.Accept,
			Timeout:         time.Duration(req.TimeoutMS) * time.Millisecond,
		},
	})
	switch {
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, service.ErrShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, service.ErrBadRequest):
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, snapshotJSON(job.Snapshot()))
}

// handlePatch submits an ECO delta against a finished job. The engine
// warm-starts from the base result's cached net ordering; the response
// is a brand-new job (202) polled like any other.
func (s *server) handlePatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	var req deltaRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.Delta == nil {
		httpError(w, http.StatusBadRequest, "request carries no delta")
		return
	}
	job, err := s.engine.SubmitDelta(r.PathValue("id"), *req.Delta,
		time.Duration(req.TimeoutMS)*time.Millisecond)
	switch {
	case errors.Is(err, service.ErrUnknownBase):
		httpError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, service.ErrNotWarmStartable):
		httpError(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, service.ErrShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, snapshotJSON(job.Snapshot()))
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !s.cfg.poll.wait(w, r, job.Done()) {
		return
	}
	writeJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.engine.Cancel(id) {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	job, _ := s.engine.Get(id)
	writeJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
}

// handleLive is the liveness probe: the process is up and serving, say
// 200 — even when degraded, because restarting a degraded daemon loses
// its queue for no gain. (/healthz is an alias so pre-split monitoring
// keeps working.)
func (s *server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// healthJSON is the /readyz payload.
type healthJSON struct {
	Status      string   `json:"status"`
	Reasons     []string `json:"reasons,omitempty"`
	QueueDepth  int      `json:"queue_depth"`
	QueueCap    int      `json:"queue_cap"`
	PanicStreak int      `json:"panic_streak,omitempty"`
}

// handleReady is the readiness probe: 503 tells the load balancer to
// route new work elsewhere while the engine is backlogged, repeatedly
// panicking, or draining — conditions that self-heal without a restart.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	hl := s.engine.Health()
	status := http.StatusOK
	if !hl.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, healthJSON{
		Status:      hl.Status,
		Reasons:     hl.Reasons,
		QueueDepth:  hl.QueueDepth,
		QueueCap:    hl.QueueCap,
		PanicStreak: hl.PanicStreak,
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Metrics().Snapshot())
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
