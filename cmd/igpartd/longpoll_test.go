package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"igpart/internal/obs"
	"igpart/internal/service"
)

// queuedJob occupies a one-worker engine with a long solve and returns
// the ID of a second job queued behind it: a job that stays non-terminal
// until the test acts on it. Both are cancelled when the test ends, so
// the engine's drain need not wait the solves out.
func queuedJob(t *testing.T, url string) string {
	t.Helper()
	var id string
	for seed := 1; seed <= 2; seed++ {
		body, _ := bookshelfPayload(t, "Prim2", 1.0, map[string]any{"parallelism": 1, "seed": seed})
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		var j jobJSON
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
		}
		id = j.ID
		t.Cleanup(func() { deleteJob(url, j.ID) })
	}
	return id
}

// deleteJob cancels a job, best effort.
func deleteJob(url, id string) {
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// longGet issues GET /v1/jobs/{id}?wait=... in the background.
func longGet(url, id, wait string) <-chan *http.Response {
	out := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(url + "/v1/jobs/" + id + "?wait=" + wait)
		if err != nil {
			out <- nil
			return
		}
		out <- resp
	}()
	return out
}

func decodeState(t *testing.T, resp *http.Response) string {
	t.Helper()
	if resp == nil {
		t.Fatal("long-poll GET failed")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status = %d, want 200", resp.StatusCode)
	}
	var j struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return j.State
}

// A long-poll blocks while the job is live and answers as soon as it
// turns terminal, long before the wait runs out.
func TestLongPollReturnsOnCompletion(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1, CacheEntries: -1}, serverConfig{})
	id := queuedJob(t, ts.URL)

	got := longGet(ts.URL, id, "30s")
	select {
	case <-got:
		t.Fatal("long-poll answered while the job was still queued")
	case <-time.After(50 * time.Millisecond):
	}
	cancelled := time.Now()
	deleteJob(ts.URL, id)
	select {
	case r := <-got:
		if state := decodeState(t, r); state != string(service.StateCancelled) {
			t.Fatalf("long-poll state = %q, want cancelled", state)
		}
		if d := time.Since(cancelled); d > 2*time.Second {
			t.Fatalf("long-poll answered %v after the job ended", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll did not answer after the job ended")
	}

	// A job that is already terminal answers at once.
	start := time.Now()
	if state := decodeState(t, <-longGet(ts.URL, id, "30s")); state != string(service.StateCancelled) {
		t.Fatalf("state = %q, want cancelled", state)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("long-poll on a finished job took %v", d)
	}
}

// Malformed waits are the request's fault; oversized ones are clamped
// to the cap below the write timeout.
func TestLongPollBadAndClampedWait(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1, CacheEntries: -1},
		serverConfig{poll: newLongPoll(200 * time.Millisecond)})
	id := queuedJob(t, ts.URL)
	for _, wait := range []string{"abc", "-1s", "5"} {
		resp := <-longGet(ts.URL, id, wait)
		if resp == nil {
			t.Fatalf("wait=%s: GET failed", wait)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%s: status %d, want 400", wait, resp.StatusCode)
		}
	}
	start := time.Now()
	state := decodeState(t, <-longGet(ts.URL, id, "1h"))
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("wait=1h on a 100ms cap took %v", d)
	}
	if service.State(state).Terminal() {
		t.Fatalf("queued job reported %q", state)
	}
}

// Shutdown does not cancel in-flight request contexts, so an open
// long-poll must be ended by the drain hook; otherwise the HTTP drain
// would wait out the whole wait and overrun the shutdown grace.
func TestLongPollEndsOnDrain(t *testing.T) {
	engine := service.New(service.Config{Workers: 1, CacheEntries: -1, Metrics: new(obs.Registry)})
	defer func() {
		// An expired drain cancels the held solves instead of waiting.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = engine.Shutdown(ctx)
	}()
	poll := newLongPoll(0)
	srv := newHTTPServer(newServer(engineMode{engine}, serverConfig{poll: poll}), 0, 0, poll)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	id := queuedJob(t, url)
	got := longGet(url, id, "30s")
	select {
	case <-got:
		t.Fatal("long-poll answered while the job was still queued")
	case <-time.After(50 * time.Millisecond):
	}

	const grace = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("HTTP drain with an open long-poll: %v after %v (grace %v)", err, time.Since(start), grace)
	}
	if state := decodeState(t, <-got); service.State(state).Terminal() {
		t.Fatalf("drained long-poll reported %q for a queued job", state)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
}
