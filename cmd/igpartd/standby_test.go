package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"igpart/internal/cluster"
)

// The standby façade: liveness endpoints answer truthfully, readiness
// is an honest 503 describing how warm the standby is, and every API
// path is 503 + Retry-After so clients wait out the takeover.
func TestStandbyFacade(t *testing.T) {
	stb := cluster.NewStandby(cluster.StandbyConfig{
		Path:  filepath.Join(t.TempDir(), "journal.jsonl"),
		Owner: "test-standby",
	})
	srv := newServer(standbyMode{stb}, serverConfig{})

	for _, path := range []string{"/healthz", "/livez"} {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200 (a standby is alive)", path, rr.Code)
		}
		var body map[string]string
		if err := json.NewDecoder(rr.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body["role"] != "standby" || body["mode"] != "coordinator" {
			t.Fatalf("GET %s body = %v, want coordinator/standby", path, body)
		}
	}

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz = %d, want 503 (a standby takes no work)", rr.Code)
	}
	var ready standbyHealthJSON
	if err := json.NewDecoder(rr.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "standby" || ready.Role != "standby" {
		t.Fatalf("readyz payload = %+v", ready)
	}

	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/jobs", nil),
		httptest.NewRequest(http.MethodGet, "/v1/jobs/cjob-1", nil),
		httptest.NewRequest(http.MethodPost, "/v1/batches", nil),
		httptest.NewRequest(http.MethodGet, "/metrics", nil),
	} {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s = %d, want 503", req.Method, req.URL.Path, rr.Code)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s missing Retry-After", req.Method, req.URL.Path)
		}
	}
}

// set promotes a standby to a leader in place — the listener never
// restarts, only the mode behind the route table changes.
func TestSwitchHandlerPromotes(t *testing.T) {
	stb := cluster.NewStandby(cluster.StandbyConfig{
		Path:  filepath.Join(t.TempDir(), "journal.jsonl"),
		Owner: "test-standby",
	})
	srv := newServer(standbyMode{stb}, serverConfig{})

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-takeover submit = %d, want 503", rr.Code)
	}

	srv.set(newStubMode())
	body, _ := bookshelfPayload(t, "Prim1", 0.1, nil)
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("post-takeover submit = %d, want the promoted handler", rr.Code)
	}
}
