package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/netgen"
	"igpart/internal/partition"
	"igpart/internal/portfolio"
)

// Serve loop parameters. The loop is closed: each client waits for its
// job to finish before sending the next request.
const (
	serveClients    = 2                    // concurrent clients (= nproc of the reference box)
	hitsPerEpisode  = 20                   // resubmits per fresh netlist, direct and via the coordinator
	pollInterval    = 2 * time.Millisecond // the client's fixed job-status poll interval
	episodeSeconds  = 2.5                  // nominal episode time on the reference box
	minEpisodes     = 3                    // per client: 2·3·20 hits give a p90 its 100 samples
	jobDeadline     = 120 * time.Second    // an operation not done by then has failed
	probeHits       = 110                  // hits per class in the short serve probe
	daemonBootLimit = 20 * time.Second
)

// Operation classes of a serve episode, in episode order.
var serveClasses = []string{"miss", "hit", "xhit", "eco", "coord_miss", "coord_hit"}

// prim1 builds the paper's Prim1 circuit, the template of the fresh
// netlists.
func prim1() (*hypergraph.Hypergraph, error) {
	c, _ := netgen.ByName("Prim1")
	return netgen.Generate(c)
}

// freshNetlist is Prim1 with its modules and nets renumbered by a
// seeded permutation: new canonical bytes, hence a new cache key, but
// the same structure, so miss cost and cut quality do not depend on
// which seed drew it.
func freshNetlist(base *hypergraph.Hypergraph, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(base.NumModules())
	b := hypergraph.NewBuilder().SetNumModules(base.NumModules())
	for _, e := range rng.Perm(base.NumNets()) {
		pins := make([]int, 0, base.NetSize(e))
		for _, v := range base.Pins(e) {
			pins = append(pins, perm[v])
		}
		b.AddNet(pins...)
	}
	return b.Build()
}

// ecoDelta draws a small seeded engineering change against h: two pins
// removed from nets of three or more pins, two pins added to other
// nets, and one new two-pin net.
func ecoDelta(h *hypergraph.Hypergraph, seed int64) portfolio.Delta {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var d portfolio.Delta
	used := map[int]bool{}
	for len(d.RemovePins) < 2 {
		e := rng.Intn(h.NumNets())
		if used[e] || h.NetSize(e) < 3 {
			continue
		}
		used[e] = true
		pins := h.Pins(e)
		d.RemovePins = append(d.RemovePins, portfolio.PinRef{Net: e, Module: pins[rng.Intn(len(pins))]})
	}
	for len(d.AddPins) < 2 {
		e := rng.Intn(h.NumNets())
		v := rng.Intn(h.NumModules())
		if used[e] || containsInt(h.Pins(e), v) {
			continue
		}
		used[e] = true
		d.AddPins = append(d.AddPins, portfolio.PinRef{Net: e, Module: v})
	}
	a := rng.Intn(h.NumModules())
	b := (a + 1 + rng.Intn(h.NumModules()-1)) % h.NumModules()
	d.AddNets = [][]int{{a, b}}
	return d
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// netlistInput is one fresh netlist as the clients submit it.
type netlistInput struct {
	h         *hypergraph.Hypergraph
	path      string // file name under the data directory
	nodes     string // Bookshelf .nodes text, for the cross-format resubmit
	nets      string // Bookshelf .nets text
	delta     portfolio.Delta
	deltaJSON json.RawMessage
}

// episodeInput is the pair of fresh netlists one episode submits:
// direct to a backend, and through the coordinator.
type episodeInput struct{ direct, coord netlistInput }

// makePool generates every client's episode inputs and writes the
// netlist files into dataDir.
func makePool(seed int64, clients, episodes int, dataDir string) ([][]episodeInput, error) {
	base, err := prim1()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]episodeInput, clients)
	for c := range pool {
		for e := 0; e < episodes; e++ {
			var pair [2]netlistInput
			for k := range pair {
				s := rng.Int63()
				h := freshNetlist(base, s)
				in := netlistInput{h: h, path: fmt.Sprintf("c%d-e%d-%d.hgr", c, e, k), delta: ecoDelta(h, s)}
				if err := hypergraph.SaveFile(filepath.Join(dataDir, in.path), h); err != nil {
					return nil, err
				}
				var nodes, nets bytes.Buffer
				if err := hypergraph.WriteBookshelf(&nodes, &nets, h); err != nil {
					return nil, err
				}
				in.nodes, in.nets = nodes.String(), nets.String()
				if in.deltaJSON, err = json.Marshal(map[string]any{"delta": in.delta}); err != nil {
					return nil, err
				}
				pair[k] = in
			}
			pool[c] = append(pool[c], episodeInput{direct: pair[0], coord: pair[1]})
		}
	}
	return pool, nil
}

// daemon is one igpartd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

var listenRE = regexp.MustCompile(`igpartd: listening on (\S+)`)

// startDaemon boots igpartd on a free port and waits for its listen
// address in the log.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start igpartd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(daemonBootLimit)
	for time.Now().Before(deadline) {
		text, _ := os.ReadFile(logPath)
		if mm := listenRE.FindSubmatch(text); mm != nil {
			d.url = "http://" + string(mm[1])
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("igpartd exited during start-up (%v): %s", d.err, text)
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.stop()
	return nil, errors.New("igpartd never logged its address")
}

// stop sends SIGTERM, waits for exit, and kills the process if it has
// not exited within ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// fleet is two backends and a coordinator with an fsync'd journal.
type fleet struct {
	backends []*daemon
	names    map[string]string // backend name → URL
	coord    *daemon
}

func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, b := range f.backends {
		b.stop()
	}
}

// bootFleet starts the fleet and waits until every daemon's /readyz
// passes.
func bootFleet(hc *http.Client, bin, dir, dataDir string) (*fleet, error) {
	f := &fleet{names: map[string]string{}}
	var specs []string
	for i := 1; i <= 2; i++ {
		b, err := startDaemon(bin, filepath.Join(dir, fmt.Sprintf("b%d.log", i)), "-data", dataDir, "-shutdown-grace", "2s")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, b)
		name := fmt.Sprintf("b%d", i)
		f.names[name] = b.url
		specs = append(specs, name+"="+b.url)
	}
	coord, err := startDaemon(bin, filepath.Join(dir, "coord.log"), "-coordinator",
		"-backends", strings.Join(specs, ","), "-data", dataDir,
		"-journal", filepath.Join(dir, "coord.jsonl"), "-shutdown-grace", "2s")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	for _, d := range append([]*daemon{coord}, f.backends...) {
		if err := waitReady(hc, d.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func waitReady(hc *http.Client, url string) error {
	deadline := time.Now().Add(daemonBootLimit)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; body unused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", url)
}

// jobView is the part of igpartd's job JSON the client reads; the
// coordinator relays the backend's result verbatim.
type jobView struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Error      string          `json:"error"`
	Backend    string          `json:"backend"`
	BackendJob string          `json:"backend_job"`
	Submitted  time.Time       `json:"submitted"`
	Started    *time.Time      `json:"started"`
	Finished   *time.Time      `json:"finished"`
	Result     json.RawMessage `json:"result"`
}

// resultView is the bipartition part of a job result.
type resultView struct {
	CutNets  int     `json:"cut_nets"`
	SizeU    int     `json:"size_u"`
	SizeW    int     `json:"size_w"`
	RatioCut float64 `json:"ratio_cut"`
	Sides    []int   `json:"sides"`
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "cancelled" }

// samples collects the timings of a serve run. Safe for concurrent use.
type samples struct {
	mu        sync.Mutex
	latency   map[string][]float64 // class → submit→done ms
	episodeS  []float64            // per episode: sum of its latencies
	submitMS  []float64            // POST/PATCH round trips
	getMS     []float64            // status GET round trips
	jobs      int
	polls     int
	queueMS   []float64 // backend started − submitted, direct solves
	solveMS   []float64 // backend finished − started, direct solves
	hopMS     []float64 // coordinator latency − backend submitted→finished
	ratioCuts []float64 // one per distinct netlist solved
	t         tally
}

func (s *samples) add(f func(s *samples)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

// httpDo sends one request and returns status, body and round trip.
func httpDo(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, []byte, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := float64(time.Since(start)) / float64(time.Millisecond)
	return resp.StatusCode, data, rtt, err
}

// runJob submits (POST or PATCH) and polls at the fixed interval until
// the job is terminal. It returns the final job and the client-observed
// submit→done latency in ms.
func runJob(hc *http.Client, s *samples, method, base, path string, body []byte) (jobView, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	start := time.Now()
	status, data, rtt, err := httpDo(ctx, hc, method, base+path, body)
	if err != nil {
		return jobView{}, 0, err
	}
	s.add(func(s *samples) { s.submitMS = append(s.submitMS, rtt); s.jobs++ })
	if status != http.StatusAccepted && status != http.StatusOK {
		return jobView{}, 0, fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	var j jobView
	for {
		if err := json.Unmarshal(data, &j); err != nil {
			return jobView{}, 0, fmt.Errorf("decode job: %w", err)
		}
		if terminal(j.State) {
			break
		}
		select {
		case <-ctx.Done():
			return jobView{}, 0, fmt.Errorf("job %s not done within %v", j.ID, jobDeadline)
		case <-time.After(pollInterval):
		}
		status, data, rtt, err = httpDo(ctx, hc, http.MethodGet, base+"/v1/jobs/"+j.ID, nil)
		if err != nil {
			return jobView{}, 0, err
		}
		s.add(func(s *samples) { s.getMS = append(s.getMS, rtt); s.polls++ })
		if status != http.StatusOK {
			return jobView{}, 0, fmt.Errorf("GET job %s: HTTP %d: %s", j.ID, status, bytes.TrimSpace(data))
		}
	}
	latency := float64(time.Since(start)) / float64(time.Millisecond)
	if j.State != "done" {
		return j, latency, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
	}
	return j, latency, nil
}

// checkServed decodes a result and re-evaluates its sides on the
// netlist that was submitted.
func checkServed(j jobView, h *hypergraph.Hypergraph) (resultView, error) {
	var r resultView
	if err := json.Unmarshal(j.Result, &r); err != nil {
		return r, fmt.Errorf("decode result: %w", err)
	}
	if len(r.Sides) != h.NumModules() {
		return r, fmt.Errorf("sides cover %d modules, netlist has %d", len(r.Sides), h.NumModules())
	}
	sides := make([]partition.Side, len(r.Sides))
	for i, s := range r.Sides {
		sides[i] = partition.Side(s)
	}
	ev := partition.Evaluate(h, partition.FromSides(sides))
	got := partition.Metrics{CutNets: r.CutNets, SizeU: r.SizeU, SizeW: r.SizeW, RatioCut: r.RatioCut}
	if ev != got {
		return r, fmt.Errorf("reported %v, re-evaluated %v", got, ev)
	}
	return r, nil
}

// sameResult checks that a resubmit returned its miss's result.
func sameResult(got, want resultView) error {
	if got.CutNets != want.CutNets || got.RatioCut != want.RatioCut || !equalInts(got.Sides, want.Sides) {
		return fmt.Errorf("resubmit returned cut=%d ratio=%v, its miss cut=%d ratio=%v",
			got.CutNets, got.RatioCut, want.CutNets, want.RatioCut)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serveClient runs one client's closed loop of episodes.
type serveClient struct {
	hc     *http.Client
	s      *samples
	fleet  *fleet
	direct string // the backend this client submits to directly
	hits   int
}

// op runs one operation of an episode, checks it, and records its
// latency under class. want, when non-nil, is the miss result a
// resubmit must repeat. It returns the result and whether it passed.
func (c *serveClient) op(class, method, base, path string, body []byte, h *hypergraph.Hypergraph, want *resultView) (jobView, resultView, float64, bool) {
	j, lat, err := runJob(c.hc, c.s, method, base, path, body)
	var r resultView
	if err == nil {
		r, err = checkServed(j, h)
	}
	if err == nil && want != nil {
		err = sameResult(r, *want)
	}
	c.s.add(func(s *samples) {
		s.t.check(class+" "+path, err)
		if err == nil {
			s.latency[class] = append(s.latency[class], lat)
		}
	})
	return j, r, lat, err == nil
}

// backendTimes records a direct solve's queue wait and solve time.
func (c *serveClient) backendTimes(j jobView) {
	if j.Started == nil || j.Finished == nil {
		return
	}
	q := float64(j.Started.Sub(j.Submitted)) / float64(time.Millisecond)
	sv := float64(j.Finished.Sub(*j.Started)) / float64(time.Millisecond)
	c.s.add(func(s *samples) { s.queueMS = append(s.queueMS, q); s.solveMS = append(s.solveMS, sv) })
}

// hop records the coordinator's share of a forwarded job: the client's
// submit→done minus the backend's submitted→finished for the same job.
func (c *serveClient) hop(j jobView, latency float64) {
	url, ok := c.fleet.names[j.Backend]
	if !ok || j.BackendJob == "" {
		c.s.add(func(s *samples) { s.t.fail("hop", fmt.Errorf("job %s names unknown backend %q", j.ID, j.Backend)) })
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	status, data, _, err := httpDo(ctx, c.hc, http.MethodGet, url+"/v1/jobs/"+j.BackendJob, nil)
	var b jobView
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err == nil {
		err = json.Unmarshal(data, &b)
	}
	if err == nil && b.Finished == nil {
		err = errors.New("backend job has no finish time")
	}
	if err != nil {
		c.s.add(func(s *samples) { s.t.fail("hop", fmt.Errorf("backend job %s: %w", j.BackendJob, err)) })
		return
	}
	h := latency - float64(b.Finished.Sub(b.Submitted))/float64(time.Millisecond)
	c.s.add(func(s *samples) { s.hopMS = append(s.hopMS, h) })
}

// episode runs the six steps on one pair of fresh netlists.
func (c *serveClient) episode(in episodeInput) {
	var total float64
	d, co := in.direct, in.coord
	pathBody, _ := json.Marshal(map[string]string{"path": d.path})
	miss, missRes, lat, ok := c.op("miss", http.MethodPost, c.direct, "/v1/jobs", pathBody, d.h, nil)
	total += lat
	if ok {
		c.backendTimes(miss)
		c.s.add(func(s *samples) { s.ratioCuts = append(s.ratioCuts, missRes.RatioCut) })
		for i := 0; i < c.hits; i++ {
			_, _, lat, _ = c.op("hit", http.MethodPost, c.direct, "/v1/jobs", pathBody, d.h, &missRes)
			total += lat
		}
		shelf, _ := json.Marshal(map[string]any{"bookshelf": map[string]string{"nodes": d.nodes, "nets": d.nets}})
		x, _, lat, ok := c.op("xhit", http.MethodPost, c.direct, "/v1/jobs", shelf, d.h, &missRes)
		total += lat
		if ok {
			c.backendTimes(x)
		}
		ecoH, _ := d.delta.Apply(d.h)
		eco, ecoRes, lat, ok := c.op("eco", http.MethodPatch, c.direct, "/v1/jobs/"+miss.ID, d.deltaJSON, ecoH, nil)
		total += lat
		if ok {
			c.backendTimes(eco)
			c.s.add(func(s *samples) { s.ratioCuts = append(s.ratioCuts, ecoRes.RatioCut) })
		}
	}
	coordBody, _ := json.Marshal(map[string]string{"path": co.path})
	cm, cmRes, lat, ok := c.op("coord_miss", http.MethodPost, c.fleet.coord.url, "/v1/jobs", coordBody, co.h, nil)
	total += lat
	if ok {
		c.hop(cm, lat)
		c.s.add(func(s *samples) { s.ratioCuts = append(s.ratioCuts, cmRes.RatioCut) })
		for i := 0; i < c.hits; i++ {
			ch, _, lat, ok := c.op("coord_hit", http.MethodPost, c.fleet.coord.url, "/v1/jobs", coordBody, co.h, &cmRes)
			total += lat
			if ok {
				c.hop(ch, lat)
			}
		}
	}
	c.s.add(func(s *samples) { s.episodeS = append(s.episodeS, total/1e3) })
}

// serveRun is the outcome of one serve measurement.
type serveRun struct {
	setupS   float64
	peakRSS  float64 // MB, the backends' peaks summed
	hitFrac  float64 // backends' cache hits ÷ lookups
	s        *samples
	firstIn  netlistInput
	episodes int
}

// runServe boots the fleet setupReps times (keeping the last), then has
// each client run its episodes in a closed loop. The episode count is
// fixed, not timed, so the fleet's state at the end — cached results,
// retained jobs, peak memory — does not depend on how fast it ran.
func runServe(cfg config, clients, hits, episodes int) (*serveRun, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer hc.CloseIdleConnections()
	var (
		fl    *fleet
		pool  [][]episodeInput
		times []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if fl != nil {
			fl.stop()
			fl = nil
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("fleet%d", rep))
		dataDir := filepath.Join(dir, "data")
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if pool, err = makePool(cfg.seed, clients, episodes, dataDir); err != nil {
			return nil, err
		}
		if fl, err = bootFleet(hc, cfg.igpartd, dir, dataDir); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer fl.stop()

	s := &samples{latency: map[string][]float64{}}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := &serveClient{hc: hc, s: s, fleet: fl, direct: fl.backends[i%len(fl.backends)].url, hits: hits}
		wg.Add(1)
		go func(in []episodeInput) {
			defer wg.Done()
			for _, ep := range in {
				c.episode(ep)
			}
		}(pool[i])
	}
	wg.Wait()

	run := &serveRun{setupS: median(times), s: s, firstIn: pool[0][0].direct, episodes: len(s.episodeS)}
	var hitsN, lookups int64
	for _, b := range fl.backends {
		rss, err := peakRSSMB(strconv.Itoa(b.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		run.peakRSS += rss
		h, l, err := cacheCounters(hc, b.url)
		if err != nil {
			return nil, err
		}
		hitsN, lookups = hitsN+h, lookups+l
	}
	if lookups > 0 {
		run.hitFrac = float64(hitsN) / float64(lookups)
	}
	return run, nil
}

// cacheCounters reads a backend's cache hits and lookups from /metrics.
func cacheCounters(hc *http.Client, url string) (hits, lookups int64, err error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0, fmt.Errorf("decode /metrics: %w", err)
	}
	h, miss := snap.Counters["service.cache_hits"], snap.Counters["service.cache_misses"]
	return h, h + miss, nil
}

// runServeWorkload runs the serve workload.
func runServeWorkload(cfg config) (metrics, *tally, error) {
	episodes := max(minEpisodes, int(math.Round(cfg.seconds/episodeSeconds)))
	run, err := runServe(cfg, serveClients, hitsPerEpisode, episodes)
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	t := &run.s.t
	logServe(run)
	if cfg.trace {
		if err := reportServeLayers(run, m); err != nil {
			return nil, nil, err
		}
		base, err := core.Partition(run.firstIn.h, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		pr := probeInputs{h: run.firstIn.h, base: base, delta: run.firstIn.delta}
		ops := []libOp{{kindFlat, "fresh-prim1", pr.h}}
		return m, t, libraryLayers(cfg, ops, pr.h, pr, m, t)
	}
	var p50s []float64
	for _, c := range serveClasses {
		if len(run.s.latency[c]) == 0 {
			return nil, nil, fmt.Errorf("no successful %s operation", c)
		}
		p50s = append(p50s, median(run.s.latency[c]))
	}
	m.set("setup_s", run.setupS, "s")
	m.set("solve_s", median(run.s.episodeS), "s")
	m.set("time_gmean_ms", gmean(p50s), "ms")
	m.set("ratio_cut_gmean", gmean(run.s.ratioCuts), "ratio")
	m.set("peak_rss_mb", run.peakRSS, "MB")
	return m, t, nil
}

// logServe prints every class's sample count, median and tail to the
// diagnostic log.
func logServe(run *serveRun) {
	fmt.Fprintf(os.Stderr, "serve: %d episodes, setup %.3f s\n", run.episodes, run.setupS)
	for _, c := range serveClasses {
		xs := run.s.latency[c]
		p90 := "n/a"
		if v, err := quantile(xs, 0.9, 10); err == nil {
			p90 = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(os.Stderr, "  %-10s n=%4d p50=%8.2f ms p90=%s ms\n", c, len(xs), median(xs), p90)
	}
}

// reportServeLayers sets the serving layers' per-layer metrics.
func reportServeLayers(run *serveRun, m metrics) error {
	s := run.s
	for _, c := range serveClasses {
		if len(s.latency[c]) == 0 {
			return fmt.Errorf("no successful %s operation", c)
		}
		m.set("igpartd."+c+"_p50_ms", median(s.latency[c]), "ms")
		m.set("igpartd."+c+"_n", float64(len(s.latency[c])), "count")
	}
	for _, c := range []string{"hit", "coord_hit"} {
		p90, err := quantile(s.latency[c], 0.9, 10)
		if err != nil {
			return fmt.Errorf("%s p90: %w", c, err)
		}
		m.set("igpartd."+c+"_p90_ms", p90, "ms")
	}
	m.set("igpartd.submit_ms", median(s.submitMS), "ms")
	m.set("igpartd.get_ms", median(s.getMS), "ms")
	m.set("igpartd.polls_per_job", float64(s.polls)/float64(max(s.jobs, 1)), "ratio")
	m.set("service.queue_wait_ms", median(s.queueMS), "ms")
	m.set("service.solve_ms", median(s.solveMS), "ms")
	m.set("service.cache_hit_frac", run.hitFrac, "ratio")
	m.set("cluster.hop_ms", median(s.hopMS), "ms")
	return nil
}

// serveLayers runs a short serve probe — one client, one episode with
// enough hits for a p90 — and reports the serving layers from it.
func serveLayers(cfg config, m metrics, t *tally) error {
	run, err := runServe(cfg, 1, probeHits, 1)
	if err != nil {
		return err
	}
	logServe(run)
	t.merge(&run.s.t)
	return reportServeLayers(run, m)
}
