// igpartd's cluster-mode HTTP layer: a coordinator façade over
// internal/cluster that keeps the single-node wire API and adds batch
// intake.
//
// Endpoints:
//
//	POST   /v1/jobs      submit one job; routed to a backend by
//	                     consistent hashing on the netlist's content
//	                     address (202 + cluster job id)
//	GET    /v1/jobs/{id} poll a cluster job; terminal jobs relay the
//	                     backend's result verbatim. ?wait=<duration>
//	                     long-polls, as in single-node mode
//	PATCH  /v1/jobs/{id} submit an ECO delta against a finished cluster
//	                     job; forwarded to the backend that solved the
//	                     base (pinned — its cache holds the warm state)
//	DELETE /v1/jobs/{id} cancel (propagated to the owning backend)
//	POST   /v1/batches   submit many jobs in one request; the chunked
//	                     NDJSON response streams one event per job
//	                     completion (with its obs span) as they finish
//	GET    /healthz      liveness (alias /livez)
//	GET    /readyz       fleet readiness: 503 until >= 1 backend ready
//	GET    /metrics      coordinator counters + proxied per-backend
//	                     /metrics, one aggregate document
//
// Submissions are re-serialized with the netlist inlined before
// forwarding, so backends need no shared filesystem; the -data flag
// only governs what the coordinator itself may read.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/obs"
)

// maxBatchJobs bounds one /v1/batches request; beyond this the client
// should split the batch (the limit exists to bound journal write
// bursts and the streamed response's lifetime, not memory).
const maxBatchJobs = 256

// coordServer routes HTTP requests onto a cluster.Coordinator.
type coordServer struct {
	coord   *cluster.Coordinator
	dataDir string
	maxBody int64
	poll    *longPoll
	mux     *http.ServeMux
}

// newCoordServer builds the façade; poll serves ?wait= on job GETs.
func newCoordServer(coord *cluster.Coordinator, dataDir string, maxBody int64, poll *longPoll) *coordServer {
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	s := &coordServer{coord: coord, dataDir: dataDir, maxBody: maxBody, poll: poll, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("PATCH /v1/jobs/{id}", s.handlePatch)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/batches", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleLive)
	s.mux.HandleFunc("GET /livez", s.handleLive)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *coordServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// prepare resolves one submission into its routing key and the
// backend-ready forward body: the netlist is loaded here (inline or
// via the coordinator's -data directory), its content address becomes
// the ring key — the very key the backends' result caches use, so the
// cache shards across the fleet with zero invalidation protocol — and
// the request is re-marshalled with the netlist inlined.
func (s *coordServer) prepare(req *submitRequest) (key string, body []byte, err error) {
	h, err := loadNetlist(req, s.dataDir, nil)
	if err != nil {
		return "", nil, err
	}
	var nodes, nets bytes.Buffer
	if err := igpart.WriteBookshelf(&nodes, &nets, h); err != nil {
		return "", nil, fmt.Errorf("serialize netlist: %v", err)
	}
	fwd := *req
	fwd.Path = ""
	fwd.Bookshelf = &bookshelfPair{Nodes: nodes.String(), Nets: nets.String()}
	body, err = json.Marshal(&fwd)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%x", sha256.Sum256(h.CanonicalBytes())), body, nil
}

// coordJobJSON is the wire form of a cluster job snapshot. The result
// field relays the backend's result object verbatim, so cluster-mode
// clients parse the same shape as single-node ones.
type coordJobJSON struct {
	ID         string          `json:"id"`
	Batch      string          `json:"batch,omitempty"`
	State      string          `json:"state"`
	Backend    string          `json:"backend,omitempty"`
	BackendJob string          `json:"backend_job,omitempty"`
	Attempts   int             `json:"attempts"`
	Resubmits  int             `json:"resubmits"`
	Cached     bool            `json:"cached,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Submitted  time.Time       `json:"submitted"`
	Finished   *time.Time      `json:"finished,omitempty"`
}

func coordSnapshotJSON(snap cluster.Snapshot) coordJobJSON {
	j := coordJobJSON{
		ID:         snap.ID,
		Batch:      snap.Batch,
		State:      snap.State,
		Backend:    snap.Backend,
		BackendJob: snap.BackendJob,
		Attempts:   snap.Attempts,
		Resubmits:  snap.Resubmits,
		Cached:     snap.Cached,
		Error:      snap.Err,
		Result:     snap.Result,
		Submitted:  snap.Submitted,
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		j.Finished = &t
	}
	return j
}

func (s *coordServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSubmit(w, r)
	if !ok {
		return
	}
	key, body, err := s.prepare(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := s.coord.Submit(key, body)
	if errors.Is(err, cluster.ErrShutdown) {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "journal write failed: "+err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, coordSnapshotJSON(job.Snapshot()))
}

// decodeSubmit parses one submitRequest body with the size cap.
func (s *coordServer) decodeSubmit(w http.ResponseWriter, r *http.Request) (*submitRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return nil, false
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return nil, false
	}
	return &req, true
}

// handlePatch forwards an ECO delta to the backend that solved the
// base cluster job. The body is relayed verbatim — the backend's
// SubmitDelta does the delta validation, and its verdict maps back
// onto the same status codes single-node clients see.
func (s *coordServer) handlePatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := s.coord.SubmitDelta(r.Context(), r.PathValue("id"), body)
	switch {
	case errors.Is(err, cluster.ErrShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, cluster.ErrUnknownBase):
		httpError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, cluster.ErrNotWarmStartable):
		httpError(w, http.StatusConflict, err.Error())
		return
	case cluster.IsNodeError(err):
		httpError(w, http.StatusBadGateway, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, coordSnapshotJSON(job.Snapshot()))
}

func (s *coordServer) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.coord.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !s.poll.wait(w, r, job.Done()) {
		return
	}
	writeJSON(w, http.StatusOK, coordSnapshotJSON(job.Snapshot()))
}

func (s *coordServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	// Resolve the *Job once and cancel through it: a second Get after
	// Cancel(id) could miss if MaxFinished pruning evicts the job in
	// between.
	job, ok := s.coord.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, coordSnapshotJSON(job.Snapshot()))
}

// batchRequest is the POST /v1/batches payload.
type batchRequest struct {
	Jobs []submitRequest `json:"jobs"`
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

func (s *coordServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req batchRequest
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
	keys := make([]string, len(req.Jobs))
	bodies := make([]json.RawMessage, len(req.Jobs))
	for i := range req.Jobs {
		key, body, err := s.prepare(&req.Jobs[i])
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("job %d: %v", i, err))
			return
		}
		keys[i], bodies[i] = key, json.RawMessage(body)
	}
	batch, err := s.coord.SubmitBatch(keys, bodies)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
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
	type doneMsg struct {
		idx  int
		snap cluster.Snapshot
	}
	completions := make(chan doneMsg)
	for i, j := range batch.Jobs {
		go func(i int, j *cluster.Job) {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				return
			}
			select {
			case completions <- doneMsg{i, j.Snapshot()}:
			case <-r.Context().Done():
			}
		}(i, j)
	}
	done, failed := 0, 0
	for n := 0; n < len(batch.Jobs); n++ {
		var msg doneMsg
		select {
		case msg = <-completions:
		case <-r.Context().Done():
			return // client went away; the jobs keep running
		}
		sp := spans[msg.idx]
		sp.Count("attempts", int64(msg.snap.Attempts))
		sp.Count("resubmits", int64(msg.snap.Resubmits))
		sp.End()
		stage := tr.Report().Children[msg.idx]
		if msg.snap.State == cluster.StateDone {
			done++
		} else {
			failed++
		}
		if !emit(batchEvent{
			Event:     "job",
			ID:        msg.snap.ID,
			State:     msg.snap.State,
			Backend:   msg.snap.Backend,
			Attempts:  msg.snap.Attempts,
			Resubmits: msg.snap.Resubmits,
			Cached:    msg.snap.Cached,
			Error:     msg.snap.Err,
			Result:    msg.snap.Result,
			Span:      &stage,
		}) {
			return
		}
	}
	root := tr.Finish()
	emit(batchEvent{Event: "batch", Batch: batch.ID, Done: done, Failed: failed, Span: &root})
}

func (s *coordServer) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "coordinator"})
}

// clusterHealthJSON is the coordinator's /readyz payload: per-backend
// readiness plus the rollup. The coordinator is ready while at least
// one backend can take work — a degraded fleet routes around its dead
// nodes, which is the whole point of the tier.
type clusterHealthJSON struct {
	Status   string                  `json:"status"`
	Ready    int                     `json:"ready"`
	Total    int                     `json:"total"`
	Backends []cluster.BackendStatus `json:"backends"`
}

func (s *coordServer) handleReady(w http.ResponseWriter, r *http.Request) {
	statuses := s.coord.Status(r.Context())
	ready := 0
	for _, st := range statuses {
		if st.Ready {
			ready++
		}
	}
	h := clusterHealthJSON{Ready: ready, Total: len(statuses), Backends: statuses}
	code := http.StatusOK
	switch {
	case ready == len(statuses):
		h.Status = "ok"
	case ready > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// clusterMetricsJSON aggregates the fleet's metrics: the coordinator's
// own registry (routing, failover, journal counters) plus each
// backend's /metrics document verbatim (null for unreachable nodes).
type clusterMetricsJSON struct {
	Coordinator obs.MetricsSnapshot        `json:"coordinator"`
	Backends    map[string]json.RawMessage `json:"backends"`
}

func (s *coordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, clusterMetricsJSON{
		Coordinator: s.coord.Metrics().Snapshot(),
		Backends:    s.coord.GatherMetrics(r.Context()),
	})
}

// coordOptions gathers everything runCoordinator needs, leader or
// standby.
type coordOptions struct {
	addr    string
	dataDir string
	maxBody int64
	grace   time.Duration
	readTO  time.Duration
	writeTO time.Duration

	cfg            cluster.Config
	journalPath    string
	standby        bool
	leaseTTL       time.Duration
	backendsFile   string
	membershipPoll time.Duration
	inj            *igpart.FaultInjector
}

// switchHandler atomically swaps the daemon's handler when a standby
// wins leadership mid-serve: requests before the swap see the standby
// façade, requests after see the full coordinator API.
type switchHandler struct {
	h atomic.Value // http.Handler
}

func (s *switchHandler) Set(h http.Handler) { s.h.Store(&h) }

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// standbyServer is the HTTP façade served while this process is a warm
// standby: health endpoints answer truthfully (alive, role standby),
// everything else is 503 + Retry-After so clients and load balancers
// wait out the takeover or go find the leader.
type standbyServer struct {
	stb *cluster.Standby
	mux *http.ServeMux
}

func newStandbyServer(stb *cluster.Standby) *standbyServer {
	s := &standbyServer{stb: stb, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleLive)
	s.mux.HandleFunc("GET /livez", s.handleLive)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("/", s.handleNotLeader)
	return s
}

func (s *standbyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *standbyServer) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "coordinator", "role": "standby"})
}

// standbyHealthJSON is the standby's /readyz payload: not ready (a
// standby takes no work), but transparent about how warm it is and
// whose lease it is watching.
type standbyHealthJSON struct {
	Status       string    `json:"status"`
	Role         string    `json:"role"`
	LeaseTerm    int64     `json:"lease_term,omitempty"`
	LeaseOwner   string    `json:"lease_owner,omitempty"`
	LeaseExpires time.Time `json:"lease_expires,omitempty"`
	WarmRecords  int       `json:"warm_records"`
	Unfinished   int       `json:"unfinished"`
}

func (s *standbyServer) handleReady(w http.ResponseWriter, _ *http.Request) {
	st := s.stb.Status()
	h := standbyHealthJSON{Status: "standby", Role: "standby", WarmRecords: st.Records, Unfinished: st.Unfinished}
	if st.HasLease {
		h.LeaseTerm = st.Lease.Term
		h.LeaseOwner = st.Lease.Owner
		h.LeaseExpires = st.Lease.Deadline
	}
	writeJSON(w, http.StatusServiceUnavailable, h)
}

func (s *standbyServer) handleNotLeader(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "standby coordinator: not the leader yet; retry after takeover")
}

// runCoordinator boots cluster mode. A leader takes the journal's
// leadership lease, builds the fleet (static -backends or the
// watchable -backends-file), replays unfinished work, and serves the
// coordinator API; a standby serves the 503 façade while tailing the
// journal, then flips to leader in place when the lease lapses. On
// SIGTERM both drain (grace-bounded; jobs the drain abandons are
// replayed by the next boot), and a leader releases its lock early so
// a standby need not wait out the lease window.
func runCoordinator(o coordOptions) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	owner := cluster.LeaseOwnerID()
	poll := newLongPoll(o.writeTO)
	sw := &switchHandler{}
	var active atomic.Pointer[cluster.Coordinator]

	// SIGHUP forces a membership reload. Armed in every coordinator
	// mode so a standby that takes over inherits the behavior.
	force := make(chan struct{}, 1)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				select {
				case force <- struct{}{}:
				default:
				}
			}
		}
	}()

	startLeader := func(j *cluster.Journal, replay []cluster.Record, lease *cluster.Lease) error {
		cfg := o.cfg
		cfg.Journal = j
		if o.backendsFile != "" {
			fleet, err := cluster.ParseBackendsFile(o.backendsFile)
			if err != nil {
				return err
			}
			cfg.Backends = fleet
		}
		if lease != nil {
			cfg.HA = &cluster.HAConfig{Lease: *lease, TTL: o.leaseTTL, LockPath: cluster.LockPath(o.journalPath)}
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		if n := coord.Recover(replay); n > 0 {
			log.Printf("igpartd: journal replay resubmitted %d unfinished job(s)", n)
		}
		if o.backendsFile != "" {
			go coord.WatchBackendsFile(ctx, o.backendsFile, o.membershipPoll, force, log.Printf)
		}
		names := make([]string, len(cfg.Backends))
		for i, b := range cfg.Backends {
			names[i] = b.Name + "=" + b.URL
		}
		log.Printf("igpartd: coordinator over %d backend(s): %v", len(names), names)
		if lease != nil {
			log.Printf("igpartd: leadership held (term %d, owner %s)", lease.Term, lease.Owner)
		}
		active.Store(coord)
		sw.Set(newCoordServer(coord, o.dataDir, o.maxBody, poll))
		return nil
	}

	if o.standby {
		stb := cluster.NewStandby(cluster.StandbyConfig{
			Path:    o.journalPath,
			Owner:   owner,
			TTL:     o.leaseTTL,
			Metrics: o.cfg.Metrics,
		})
		sw.Set(newStandbyServer(stb))
		log.Printf("igpartd: standby tailing %s (owner %s)", o.journalPath, owner)
		go func() {
			j, replay, lease, err := stb.Run(ctx)
			if err != nil {
				if ctx.Err() == nil {
					log.Printf("igpartd: standby: %v", err)
				}
				return
			}
			j.SetFault(o.inj)
			log.Printf("igpartd: standby takeover: lease term %d (owner %s)", lease.Term, lease.Owner)
			if err := startLeader(j, replay, &lease); err != nil {
				// Keep serving the 503 façade; the operator sees why.
				log.Printf("igpartd: standby takeover failed: %v", err)
			}
		}()
	} else {
		var (
			j      *cluster.Journal
			replay []cluster.Record
			lease  *cluster.Lease
		)
		if o.journalPath != "" {
			jj, recs, l, err := cluster.TakeLeadership(o.journalPath, owner, o.leaseTTL)
			if err != nil {
				return err
			}
			jj.SetFault(o.inj)
			j, replay, lease = jj, recs, &l
		}
		if err := startLeader(j, replay, lease); err != nil {
			return err
		}
	}

	drain := func(dctx context.Context) error {
		cancel() // stop the standby tail and the membership watcher
		if c := active.Load(); c != nil {
			return c.Shutdown(dctx)
		}
		return nil
	}
	return serveHTTP(o.addr, newHTTPServer(sw, o.readTO, o.writeTO, poll), drain, o.grace)
}
