package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/obs"
	"igpart/internal/service"
)

// TestOneCacheKeyAcrossFormats submits one netlist four ways — an .hgr
// path, a named-format path, inline Bookshelf, and an .hgr path through
// the coordinator, which forwards it re-serialized as Bookshelf — and
// requires the backend to solve it once. The .hgr input carries no
// module weights and the Bookshelf input a unit area per node; both
// must key the result cache alike.
func TestOneCacheKeyAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := igpart.Benchmark("Prim1")
	h, err := igpart.Generate(cfg.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"n.hgr", "n.net"} {
		if err := igpart.Save(filepath.Join(dir, name), h); err != nil {
			t.Fatal(err)
		}
	}
	var nodes, nets bytes.Buffer
	if err := igpart.WriteBookshelf(&nodes, &nets, h); err != nil {
		t.Fatal(err)
	}

	reg := new(obs.Registry)
	ts, _ := testServer(t, service.Config{Workers: 1, Metrics: reg}, serverConfig{dataDir: dir})
	coord, err := cluster.New(cluster.Config{
		Backends: []cluster.Backend{{Name: "b0", URL: ts.URL}},
		Metrics:  new(obs.Registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(newServer(coordMode{coord}, serverConfig{dataDir: dir, poll: newLongPoll(0)}))
	t.Cleanup(func() {
		cts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})

	var ratios []float64
	submit := func(how string, target *httptest.Server, req map[string]any) {
		body, _ := json.Marshal(req)
		code, j := postJob(t, target, body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("%s: submit status %d", how, code)
		}
		var state string
		var res *resultJSON
		if target == cts {
			c := pollClusterJob(t, cts, j.ID, 30*time.Second)
			state = c.State
			if c.Result != nil {
				res = new(resultJSON)
				if err := json.Unmarshal(c.Result, res); err != nil {
					t.Fatalf("%s: decode result: %v", how, err)
				}
			}
		} else {
			final := pollTerminal(t, target, j.ID, 30*time.Second)
			state, res = final.State, final.Result
		}
		if state != string(service.StateDone) || res == nil {
			t.Fatalf("%s: job ended %q", how, state)
		}
		ratios = append(ratios, res.RatioCut)
	}
	submit("hgr path", ts, map[string]any{"path": "n.hgr"})
	submit("named path", ts, map[string]any{"path": "n.net"})
	submit("bookshelf", ts, map[string]any{"bookshelf": map[string]string{"nodes": nodes.String(), "nets": nets.String()}})
	submit("coordinator", cts, map[string]any{"path": "n.hgr"})

	if got := reg.Counter("service.cache_misses").Value(); got != 1 {
		t.Errorf("service.cache_misses = %d for one netlist in four formats, want 1", got)
	}
	for i, r := range ratios {
		if r != ratios[0] {
			t.Errorf("submission %d: ratio cut %v, want %v", i, r, ratios[0])
		}
	}
}
