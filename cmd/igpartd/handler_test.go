package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"igpart"
)

// stubMode is a leader over an in-memory job map, for driving the
// handler set without an engine or a fleet behind it.
type stubMode struct {
	mu     sync.Mutex
	nextID int
	jobs   map[string]*stubJob
}

type stubJob struct {
	m     *stubMode
	id    string
	state string
	done  chan struct{}
}

func newStubMode() *stubMode { return &stubMode{jobs: make(map[string]*stubJob)} }

func (m *stubMode) submit(*submitRequest, *igpart.Netlist) (job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	j := &stubJob{m: m, id: fmt.Sprintf("stub-%d", m.nextID), state: "queued", done: make(chan struct{})}
	m.jobs[j.id] = j
	return j, nil
}

func (m *stubMode) submitDelta(context.Context, string, json.RawMessage) (job, error) {
	return nil, errors.New("stub takes no deltas")
}

func (m *stubMode) get(id string) (job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j, true
}

func (m *stubMode) live() any { return map[string]string{"status": "ok"} }
func (m *stubMode) ready(context.Context) (int, any) {
	return http.StatusOK, map[string]string{"status": "ok"}
}
func (m *stubMode) metrics(context.Context) any { return map[string]string{} }
func (j *stubJob) ID() string                   { return j.id }
func (j *stubJob) Done() <-chan struct{}        { return j.done }
func (j *stubJob) view() any                    { return map[string]string{"id": j.id, "state": j.state} }

// Cancel finishes the job and, as MaxFinished pruning may at any
// moment, forgets it at once.
func (j *stubJob) Cancel() {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	j.state = "cancelled"
	close(j.done)
	delete(j.m.jobs, j.id)
}

// DELETE resolves the job once and answers from that handle: a job the
// registry forgets right after the cancel still gets its 200 and final
// snapshot instead of a second lookup that misses.
func TestCancelAnswersJobPrunedAfterCancel(t *testing.T) {
	m := newStubMode()
	ts := httptest.NewServer(newServer(m, serverConfig{}))
	defer ts.Close()
	j, _ := m.submit(nil, nil)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["id"] != j.ID() || body["state"] != "cancelled" {
		t.Fatalf("DELETE = %d %v, want 200 with the cancelled job", resp.StatusCode, body)
	}
	if _, ok := m.get(j.ID()); ok {
		t.Fatal("stub still tracks the job; the test no longer exercises pruning")
	}
}
