package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"igpart"
	"igpart/internal/fault"
	"igpart/internal/service"
)

// engineMode serves the job API from a local service.Engine: the
// single-node daemon, and every backend of a cluster.
type engineMode struct{ e *service.Engine }

// engineJob is a service job as the handlers see it.
type engineJob struct{ *service.Job }

func (j engineJob) view() any { return snapshotJSON(j.Snapshot()) }

func (m engineMode) submit(req *submitRequest, h *igpart.Netlist) (job, error) {
	j, err := m.e.Submit(service.Request{
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
	if err != nil {
		return nil, err
	}
	return engineJob{j}, nil
}

// deltaRequest is the PATCH /v1/jobs/{id} payload: an ECO delta to
// apply against the identified finished job.
type deltaRequest struct {
	Delta     *igpart.NetlistDelta `json:"delta"`
	TimeoutMS int64                `json:"timeout_ms,omitempty"`
}

// submitDelta warm-starts from the base result's cached net ordering.
func (m engineMode) submitDelta(_ context.Context, baseID string, body json.RawMessage) (job, error) {
	var req deltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad JSON: %v", err)
	}
	if req.Delta == nil {
		return nil, errors.New("request carries no delta")
	}
	j, err := m.e.SubmitDelta(baseID, *req.Delta, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err != nil {
		return nil, err
	}
	return engineJob{j}, nil
}

func (m engineMode) get(id string) (job, bool) {
	j, ok := m.e.Get(id)
	if !ok {
		return nil, false
	}
	return engineJob{j}, true
}

func (m engineMode) live() any { return map[string]string{"status": "ok"} }

// ready is 503 while the engine is backlogged, repeatedly panicking, or
// draining — conditions that self-heal without a restart.
func (m engineMode) ready(context.Context) (int, any) {
	hl := m.e.Health()
	if !hl.Ready {
		return http.StatusServiceUnavailable, hl
	}
	return http.StatusOK, hl
}

func (m engineMode) metrics(context.Context) any { return m.e.Metrics().Snapshot() }

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

// timeOrNil is t, or nil (omitted from JSON) when t is zero.
func timeOrNil(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

func snapshotJSON(snap service.Snapshot) jobJSON {
	j := jobJSON{
		ID:        snap.ID,
		State:     string(snap.State),
		Cached:    snap.Cached,
		Submitted: snap.Submitted,
		Started:   timeOrNil(snap.Started),
		Finished:  timeOrNil(snap.Finished),
	}
	if snap.Err != nil {
		j.Error = snap.Err.Error()
		if pe, ok := fault.AsPanic(snap.Err); ok {
			j.Stack = string(pe.Stack)
		}
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
