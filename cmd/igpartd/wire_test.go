package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"igpart/internal/cluster"
	"igpart/internal/obs"
	"igpart/internal/service"
)

// wireCase is one request of the wire-compatibility table and what a
// client must see back in each mode.
type wireCase struct {
	name   string
	method string
	// path may carry "{id}", replaced by the job the first case
	// submitted (or a made-up ID where nothing can be submitted).
	path string
	// body may carry "{netlist}", replaced by an inline Bookshelf pair.
	body string
	want map[string]wireWant // by mode
}

// wireWant is the client-visible answer: status, the Location and
// Retry-After headers, and the top-level JSON keys of the body (the
// first NDJSON line for a batch stream; nil for a non-JSON body).
// keys must all be present; maybe may be, depending on how far the
// job got when the answer was written.
type wireWant struct {
	status     int
	location   bool // Location: /v1/jobs/<the answered job's id>
	retryAfter string
	keys       string
	maybe      string
}

var (
	engineJobKeys  = "id state submitted"
	engineJobMaybe = "started finished cached result error stack"
	coordJobKeys   = "attempts id resubmits state submitted"
	coordJobMaybe  = "backend backend_job finished cached result error batch"
	errKeys        = "error"
	notLeader      = wireWant{status: 503, retryAfter: "1", keys: errKeys}
)

// wireCases is the HTTP contract of every mode: what single-node,
// coordinator and standby clients see, route by route.
var wireCases = []wireCase{
	{name: "submit", method: "POST", path: "/v1/jobs", body: `{"bookshelf": {netlist}}`, want: map[string]wireWant{
		"single":      {status: 202, location: true, keys: engineJobKeys, maybe: engineJobMaybe},
		"coordinator": {status: 202, location: true, keys: coordJobKeys, maybe: coordJobMaybe},
		"standby":     notLeader,
	}},
	{name: "submit bad json", method: "POST", path: "/v1/jobs", body: `{`, want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "submit unknown field", method: "POST", path: "/v1/jobs", body: `{"nope": 1}`, want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "submit no netlist", method: "POST", path: "/v1/jobs", body: `{}`, want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "get wait", method: "GET", path: "/v1/jobs/{id}?wait=30s", want: map[string]wireWant{
		"single":      {status: 200, keys: "id state submitted started finished result"},
		"coordinator": {status: 200, keys: "attempts backend backend_job finished id resubmits result state submitted"},
		"standby":     notLeader,
	}},
	{name: "get", method: "GET", path: "/v1/jobs/{id}", want: map[string]wireWant{
		"single":      {status: 200, keys: "id state submitted started finished result"},
		"coordinator": {status: 200, keys: "attempts backend backend_job finished id resubmits result state submitted"},
		"standby":     notLeader,
	}},
	{name: "get bad wait", method: "GET", path: "/v1/jobs/{id}?wait=soon", want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "get unknown", method: "GET", path: "/v1/jobs/nope", want: map[string]wireWant{
		"single":      {status: 404, keys: errKeys},
		"coordinator": {status: 404, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "patch", method: "PATCH", path: "/v1/jobs/{id}", body: `{"delta": {"remove_nets": [0]}}`, want: map[string]wireWant{
		"single":      {status: 202, location: true, keys: engineJobKeys, maybe: engineJobMaybe},
		"coordinator": {status: 202, location: true, keys: coordJobKeys, maybe: coordJobMaybe},
		"standby":     notLeader,
	}},
	{name: "patch bad json", method: "PATCH", path: "/v1/jobs/{id}", body: `{not json`, want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "patch no delta", method: "PATCH", path: "/v1/jobs/{id}", body: `{}`, want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "patch bad delta", method: "PATCH", path: "/v1/jobs/{id}", body: `{"delta": {"remove_nets": [999999]}}`, want: map[string]wireWant{
		"single":      {status: 400, keys: errKeys},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "patch unknown", method: "PATCH", path: "/v1/jobs/nope", body: `{"delta": {"remove_nets": [0]}}`, want: map[string]wireWant{
		"single":      {status: 404, keys: errKeys},
		"coordinator": {status: 404, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "delete", method: "DELETE", path: "/v1/jobs/{id}", want: map[string]wireWant{
		"single":      {status: 200, keys: "id state submitted started finished result"},
		"coordinator": {status: 200, keys: "attempts backend backend_job finished id resubmits result state submitted"},
		"standby":     notLeader,
	}},
	{name: "delete unknown", method: "DELETE", path: "/v1/jobs/nope", want: map[string]wireWant{
		"single":      {status: 404, keys: errKeys},
		"coordinator": {status: 404, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "healthz", method: "GET", path: "/healthz", want: map[string]wireWant{
		"single":      {status: 200, keys: "status"},
		"coordinator": {status: 200, keys: "mode status"},
		"standby":     {status: 200, keys: "mode role status"},
	}},
	{name: "livez", method: "GET", path: "/livez", want: map[string]wireWant{
		"single":      {status: 200, keys: "status"},
		"coordinator": {status: 200, keys: "mode status"},
		"standby":     {status: 200, keys: "mode role status"},
	}},
	{name: "readyz", method: "GET", path: "/readyz", want: map[string]wireWant{
		"single":      {status: 200, keys: "queue_cap queue_depth status"},
		"coordinator": {status: 200, keys: "backends ready status total"},
		"standby":     {status: 503, keys: "lease_expires role status unfinished warm_records"},
	}},
	{name: "metrics", method: "GET", path: "/metrics", want: map[string]wireWant{
		"single":      {status: 200, keys: "counters gauges", maybe: "timers"},
		"coordinator": {status: 200, keys: "backends coordinator"},
		"standby":     notLeader,
	}},
	{name: "batch", method: "POST", path: "/v1/batches", body: `{"jobs": [{"bookshelf": {netlist}}]}`, want: map[string]wireWant{
		"single":      {status: 404},
		"coordinator": {status: 202, keys: "batch event jobs"},
		"standby":     notLeader,
	}},
	{name: "batch empty", method: "POST", path: "/v1/batches", body: `{"jobs": []}`, want: map[string]wireWant{
		"single":      {status: 404},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "batch bad json", method: "POST", path: "/v1/batches", body: `{`, want: map[string]wireWant{
		"single":      {status: 404},
		"coordinator": {status: 400, keys: errKeys},
		"standby":     notLeader,
	}},
	{name: "batch wrong method", method: "GET", path: "/v1/batches", want: map[string]wireWant{
		"single":      {status: 404},
		"coordinator": {status: 405},
		"standby":     notLeader,
	}},
	{name: "unrouted method", method: "PUT", path: "/v1/jobs", want: map[string]wireWant{
		"single":      {status: 405},
		"coordinator": {status: 405},
		"standby":     notLeader,
	}},
	{name: "unrouted path", method: "GET", path: "/v2/jobs", want: map[string]wireWant{
		"single":      {status: 404},
		"coordinator": {status: 404},
		"standby":     notLeader,
	}},
}

// TestWireCompat drives every route in all three modes — single node,
// a coordinator over two real backends, and a standby — and checks the
// status code, the Location and Retry-After headers, and the
// top-level JSON keys a client sees.
func TestWireCompat(t *testing.T) {
	nodes, _ := bookshelfPayload(t, "Prim1", 0.1, nil)
	var payload struct {
		Bookshelf json.RawMessage `json:"bookshelf"`
	}
	if err := json.Unmarshal(nodes, &payload); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"single", "coordinator", "standby"} {
		t.Run(mode, func(t *testing.T) {
			url := bootWireMode(t, mode)
			id := "cjob-1"
			for _, tc := range wireCases {
				want := tc.want[mode]
				path := strings.ReplaceAll(tc.path, "{id}", id)
				body := strings.ReplaceAll(tc.body, "{netlist}", string(payload.Bookshelf))
				status, hdr, keys, answered := wireDo(t, tc.method, url+path, body)
				if status != want.status {
					t.Errorf("%s: status = %d, want %d", tc.name, status, want.status)
					continue
				}
				if tc.name == "submit" && status == http.StatusAccepted {
					id = answered
				}
				wantLoc := ""
				if want.location {
					wantLoc = "/v1/jobs/" + answered
				}
				if got := hdr.Get("Location"); got != wantLoc {
					t.Errorf("%s: Location = %q, want %q", tc.name, got, wantLoc)
				}
				if got := hdr.Get("Retry-After"); got != want.retryAfter {
					t.Errorf("%s: Retry-After = %q, want %q", tc.name, got, want.retryAfter)
				}
				if msg := checkKeys(keys, want.keys, want.maybe); msg != "" {
					t.Errorf("%s: JSON keys %v: %s", tc.name, keys, msg)
				}
			}
		})
	}
}

// wireDo issues one request and returns the status, headers, the body's
// top-level JSON keys (first line only, so a batch stream is not waited
// out), and the body's "id" when it carries one.
func wireDo(t *testing.T, method, url, body string) (int, http.Header, []string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	line, _ := bufio.NewReader(resp.Body).ReadBytes('\n')
	var obj map[string]json.RawMessage
	if json.Unmarshal(line, &obj) != nil {
		return resp.StatusCode, resp.Header, nil, ""
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var id string
	_ = json.Unmarshal(obj["id"], &id)
	return resp.StatusCode, resp.Header, keys, id
}

// checkKeys reports how got differs from the required and optional key
// sets, or "" when it matches.
func checkKeys(got []string, keys, maybe string) string {
	if keys == "" && got == nil {
		return ""
	}
	allowed := make(map[string]bool)
	for _, k := range strings.Fields(maybe) {
		allowed[k] = true
	}
	have := make(map[string]bool)
	for _, k := range got {
		have[k] = true
	}
	for _, k := range strings.Fields(keys) {
		if !have[k] {
			return "missing " + k
		}
		allowed[k] = true
	}
	for _, k := range got {
		if !allowed[k] {
			return "unexpected " + k
		}
	}
	return ""
}

// bootWireMode starts the daemon's handler in one mode and returns its
// URL.
func bootWireMode(t *testing.T, mode string) string {
	t.Helper()
	switch mode {
	case "single":
		ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{})
		return ts.URL
	case "coordinator":
		ts, _ := testCoordinator(t, "", -1, newClusterBackend(t, "b0"), newClusterBackend(t, "b1"))
		return ts.URL
	default:
		stb := cluster.NewStandby(cluster.StandbyConfig{
			Path:    filepath.Join(t.TempDir(), "journal.jsonl"),
			Owner:   "wire-standby",
			Metrics: new(obs.Registry),
		})
		ts := httptest.NewServer(newServer(standbyMode{stb}, serverConfig{}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
}
