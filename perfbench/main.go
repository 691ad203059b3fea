// Command perfbench is igpart's benchmark. It drives igpart from outside
// through its public entry points — the core, multilevel and multiway
// packages in process, and igpartd daemons over HTTP — checks every
// output, and prints one JSON result line. See README.md for the
// workloads and the meaning of every metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sweep-suite --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// output is the result line.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	igpartd  string // path of the igpartd binary
	work     string // scratch directory for netlists and daemon state
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep-suite, eigen-100k or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.igpartd, "igpartd", "", "igpartd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory (emptied first)")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.igpartd == "" || cfg.work == "" {
		return fmt.Errorf("-igpartd and -work are required")
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	var (
		m   metrics
		t   *tally
		err error
	)
	switch cfg.workload {
	case "sweep-suite", "eigen-100k":
		m, t, err = runLibrary(cfg)
	case "serve":
		m, t, err = runServeWorkload(cfg)
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	if err := checkDeclared(m, cfg.trace); err != nil {
		return err
	}
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "FAILED", r)
	}
	fmt.Fprintf(os.Stderr, "attempted=%d failed=%d failed_frac=%.4g\n", t.attempted, t.failed(), t.failedFrac())
	line, err := json.Marshal(output{
		Correct:   t.failed() == 0,
		Attempted: t.attempted,
		Failed:    t.failed(),
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// checkDeclared compares the metrics a run produced with the ones
// BENCHMARK.json declares for its mode — end_to_end untraced, per_layer
// traced — so a run never reports a partial or mislabelled set.
func checkDeclared(m metrics, traced bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	seen := map[string]bool{}
	for _, d := range list {
		got, ok := m[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		case got.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, got.Unit, d.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, got.Value)
		}
		seen[d.Name] = true
	}
	for name := range m {
		if !seen[name] {
			return fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return nil
}
