package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/jobs"
	"igpart/internal/obs"
)

// coordMode serves the job API by routing jobs across a backend fleet
// through a cluster.Coordinator.
type coordMode struct{ c *cluster.Coordinator }

// coordJob is a cluster job as the handlers see it.
type coordJob struct{ *cluster.Job }

func (j coordJob) view() any { return coordSnapshotJSON(j.Snapshot()) }

// forward turns a loaded submission into its routing key and the
// backend-ready body. The netlist's content address is the ring key —
// the very key the backends' result caches use, so the cache shards
// across the fleet with zero invalidation protocol — and the request is
// re-marshalled with the netlist inlined, so backends need no shared
// filesystem; -data only governs what the coordinator itself may read.
func forward(req *submitRequest, h *igpart.Netlist) (key string, body []byte, err error) {
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

func (m coordMode) submit(req *submitRequest, h *igpart.Netlist) (job, error) {
	key, body, err := forward(req, h)
	if err != nil {
		return nil, err
	}
	j, err := m.c.Submit(key, body)
	switch {
	case errors.Is(err, jobs.ErrShutdown):
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("%w: %w", errJournal, err)
	}
	return coordJob{j}, nil
}

// submitDelta relays the PATCH body to the backend that solved the
// base job (pinned — its cache holds the warm state); the backend
// validates the delta, and its verdict maps back onto the same statuses
// single-node clients see.
func (m coordMode) submitDelta(ctx context.Context, baseID string, body json.RawMessage) (job, error) {
	j, err := m.c.SubmitDelta(ctx, baseID, body)
	if err != nil {
		return nil, err
	}
	return coordJob{j}, nil
}

// submitBatch accepts every job of a batch, journaled, in one call.
func (m coordMode) submitBatch(reqs []submitRequest, hs []*igpart.Netlist) (*cluster.Batch, error) {
	keys := make([]string, len(reqs))
	bodies := make([]json.RawMessage, len(reqs))
	for i := range reqs {
		key, body, err := forward(&reqs[i], hs[i])
		if err != nil {
			return nil, fmt.Errorf("job %d: %v", i, err)
		}
		keys[i], bodies[i] = key, body
	}
	b, err := m.c.SubmitBatch(keys, bodies)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBatchIntake, err)
	}
	return b, nil
}

func (m coordMode) get(id string) (job, bool) {
	j, ok := m.c.Get(id)
	if !ok {
		return nil, false
	}
	return coordJob{j}, true
}

func (m coordMode) live() any { return map[string]string{"status": "ok", "mode": "coordinator"} }

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
	return coordJobJSON{
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
		Finished:   timeOrNil(snap.Finished),
	}
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

// ready is 200 while at least one backend is ready.
func (m coordMode) ready(ctx context.Context) (int, any) {
	statuses := m.c.Status(ctx)
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
	return code, h
}

// clusterMetricsJSON aggregates the fleet's metrics: the coordinator's
// own registry (routing, failover, journal counters) plus each
// backend's /metrics document verbatim (null for unreachable nodes).
type clusterMetricsJSON struct {
	Coordinator obs.MetricsSnapshot        `json:"coordinator"`
	Backends    map[string]json.RawMessage `json:"backends"`
}

func (m coordMode) metrics(ctx context.Context) any {
	return clusterMetricsJSON{
		Coordinator: m.c.Metrics().Snapshot(),
		Backends:    m.c.GatherMetrics(ctx),
	}
}

// coordOptions gathers everything startCoordinator needs, leader or
// standby.
type coordOptions struct {
	cfg            cluster.Config
	journalPath    string
	standby        bool
	leaseTTL       time.Duration
	backendsFile   string
	membershipPoll time.Duration
}

// standbyMode is a warm standby coordinator: it tails the shared
// journal and answers the probes truthfully (alive, role standby, not
// ready) until it takes over; the job API answers 503 + Retry-After so
// clients and load balancers wait out the takeover or go find the
// leader.
type standbyMode struct{ stb *cluster.Standby }

func (m standbyMode) live() any {
	return map[string]string{"status": "ok", "mode": "coordinator", "role": "standby"}
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

func (m standbyMode) ready(context.Context) (int, any) {
	st := m.stb.Status()
	h := standbyHealthJSON{Status: "standby", Role: "standby", WarmRecords: st.Records, Unfinished: st.Unfinished}
	if st.HasLease {
		h.LeaseTerm = st.Lease.Term
		h.LeaseOwner = st.Lease.Owner
		h.LeaseExpires = st.Lease.Deadline
	}
	return http.StatusServiceUnavailable, h
}

// startCoordinator boots cluster mode and returns its handler and
// drain. A leader takes the journal's leadership lease, builds the
// fleet (static -backends or the watchable -backends-file), replays
// unfinished work, and serves the coordinator API; a standby answers as
// one while tailing the journal, then flips to leader in place when the
// lease lapses. On SIGTERM both drain (grace-bounded; jobs the drain
// abandons are replayed by the next boot), and a leader releases its
// lock early so a standby need not wait out the lease window.
func startCoordinator(scfg serverConfig, o coordOptions) (_ *server, _ func(context.Context) error, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	owner := cluster.LeaseOwnerID()
	var srv *server
	var active atomic.Pointer[cluster.Coordinator]

	// SIGHUP forces a membership reload. Armed in every coordinator
	// mode so a standby that takes over inherits the behavior.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	// drain stops the standby tail, the membership watcher and SIGHUP
	// delivery, then the coordinator behind them.
	drain := func(dctx context.Context) error {
		cancel()
		signal.Stop(hup)
		if c := active.Load(); c != nil {
			return c.Shutdown(dctx)
		}
		return nil
	}
	defer func() {
		if err != nil {
			drain(context.Background())
		}
	}()
	startLeader := func(j *cluster.Journal, replay []cluster.Record, lease *cluster.Lease) (mode, error) {
		cfg := o.cfg
		cfg.Journal = j
		if o.backendsFile != "" {
			fleet, err := cluster.ParseBackendsFile(o.backendsFile)
			if err != nil {
				return nil, err
			}
			cfg.Backends = fleet
		}
		if lease != nil {
			cfg.HA = &cluster.HAConfig{Lease: *lease, TTL: o.leaseTTL, LockPath: cluster.LockPath(o.journalPath)}
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		if n := coord.Recover(replay); n > 0 {
			log.Printf("igpartd: journal replay resubmitted %d unfinished job(s)", n)
		}
		if o.backendsFile != "" {
			go coord.WatchBackendsFile(ctx, o.backendsFile, o.membershipPoll, hup, log.Printf)
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
		return coordMode{coord}, nil
	}

	if o.standby {
		stb := cluster.NewStandby(cluster.StandbyConfig{
			Path:    o.journalPath,
			Owner:   owner,
			TTL:     o.leaseTTL,
			Metrics: o.cfg.Metrics,
		})
		srv = newServer(standbyMode{stb}, scfg)
		log.Printf("igpartd: standby tailing %s (owner %s)", o.journalPath, owner)
		go func() {
			j, replay, lease, err := stb.Run(ctx)
			if err != nil {
				if ctx.Err() == nil {
					log.Printf("igpartd: standby: %v", err)
				}
				return
			}
			j.SetFault(o.cfg.Fault)
			log.Printf("igpartd: standby takeover: lease term %d (owner %s)", lease.Term, lease.Owner)
			m, err := startLeader(j, replay, &lease)
			if err != nil {
				// Keep answering as a standby; the operator sees why.
				log.Printf("igpartd: standby takeover failed: %v", err)
				return
			}
			srv.set(m)
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
				return nil, nil, err
			}
			jj.SetFault(o.cfg.Fault)
			j, replay, lease = jj, recs, &l
		}
		m, err := startLeader(j, replay, lease)
		if err != nil {
			return nil, nil, err
		}
		srv = newServer(m, scfg)
	}

	return srv, drain, nil
}
