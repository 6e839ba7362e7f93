// Command perfbench is the repository benchmark. It scans seeded app
// corpora end to end — from container bytes on disk through to rendered
// report text — checks every scan against the independent corpus oracle,
// and prints one JSON result line last on standard output:
//
//	bash perfbench/run.sh --workload corpus --seed 2016 --seconds 10 --trace 0
//
// Workloads (see workloadWhy): corpus and large-apps. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics from traced passes that replay each layer through its
// public calls, plus the tracing overhead, and serves the apps once
// through serve as CI rescans for the cache and server layers.
//
// One run is one orchestrating process that generates the inputs, then
// starts child processes of its own binary one at a time: several set-up
// children (each builds the program's objects in a fresh process and makes
// one pass over the inputs; setup_s is their median) and one measuring
// child, whose peak RSS is therefore the program's and not the input
// generator's. Load comes from one process with at most nproc goroutines
// or connections.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The workloads and the one-line reason each exists.
var workloadWhy = map[string]string{
	"corpus":     "285 small apps: the fixed per-scan cost (framework merge, hierarchy, call graph) dominates",
	"large-apps": "corpus apps padded with a few hundred inert classes: decode, call graph and summaries dominate",
}

const (
	// setupRuns is how many fresh processes time the set-up; setup_s is
	// their median.
	setupRuns = 7
	// runDeadline bounds one whole run, children included.
	runDeadline = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // build directory: scratch inputs and trace files live here
	role     string // "" (orchestrator), "setup" or "measure"
	dir      string // run directory shared with the children
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childResult is what a child process reports on its last stdout line.
type childResult struct {
	SetupS    float64           `json:"setup_s,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics,omitempty"`
	GCCycles  uint32            `json:"gc_cycles"`
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: corpus or large-apps")
	fs.Int64Var(&cfg.seed, "seed", 2016, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced passes and prints the per-layer metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build", "build directory for scratch inputs and traces")
	fs.StringVar(&cfg.role, "role", "", "internal: child role (setup or measure)")
	fs.StringVar(&cfg.dir, "dir", "", "internal: run directory of the orchestrator")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if _, ok := workloadWhy[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload corpus|large-apps, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	var err error
	switch cfg.role {
	case "":
		err = orchestrate(cfg)
	case "setup", "measure":
		err = child(cfg)
	default:
		err = fmt.Errorf("unknown role %q", cfg.role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// orchestrate generates the inputs, runs the gate self-test and the
// children, and prints the context, census and result lines.
func orchestrate(cfg config) error {
	start := time.Now()
	steal0, stealErr := stealTicks()
	catalog, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		return err
	}
	runDir, err := filepath.Abs(filepath.Join(cfg.work, "run", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	cfg.dir = runDir

	man, err := generate(cfg.workload, cfg.seed, runDir)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	if err := gateSelfTest(runDir, man); err != nil {
		return fmt.Errorf("gate self-test: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res := result{Metrics: map[string]metric{}}
	var failures []string
	var gcCycles uint32
	collect := func(c childResult) {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		failures = append(failures, c.Failures...)
		gcCycles += c.GCCycles
		for k, v := range c.Metrics {
			res.Metrics[k] = v
		}
	}
	var wantMetrics []catalogMetric
	if cfg.trace {
		c, err := runChild(ctx, cfg, "measure")
		if err != nil {
			return err
		}
		collect(c)
		wantMetrics = catalog.PerLayer
	} else {
		setups := make([]float64, 0, setupRuns)
		for i := 0; i < setupRuns; i++ {
			c, err := runChild(ctx, cfg, "setup")
			if err != nil {
				return err
			}
			collect(c)
			setups = append(setups, c.SetupS)
		}
		c, err := runChild(ctx, cfg, "measure")
		if err != nil {
			return err
		}
		collect(c)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		wantMetrics = catalog.EndToEnd
	}
	// Every named metric must be present with its unit, or the result is
	// not correct.
	catalogErrs := checkCatalog(res.Metrics, wantMetrics)
	for _, e := range catalogErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", e)
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed operations\n", len(failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", f)
	}
	res.Correct = res.Failed == 0 && len(catalogErrs) == 0 && res.Attempted > 0

	steal1, _ := stealTicks()
	runCtx := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gc_cycles":  gcCycles,
		"wall_s":     time.Since(start).Seconds(),
	}
	if stealErr == nil {
		runCtx["steal_ticks"] = steal1 - steal0
	}
	printLine("context", runCtx)
	printLine("census", man.Census)
	if cfg.trace {
		fmt.Printf("trace: %s\n", traceFile(cfg))
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runChild runs this binary in the given role and decodes its last
// stdout line. The child's standard error passes through.
func runChild(ctx context.Context, cfg config, role string) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"--role", role, "--dir", cfg.dir, "--work", cfg.work,
		"--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var c childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return childResult{}, fmt.Errorf("%s child output: %w", role, err)
	}
	return c, nil
}

// child runs one set-up or measuring process and prints its childResult.
func child(cfg config) error {
	man, err := readManifest(cfg.dir)
	if err != nil {
		return err
	}
	var c childResult
	switch {
	case cfg.role == "setup":
		c = runSetup(cfg, man)
	case cfg.trace:
		c, err = runTraced(cfg, man)
	default:
		c, err = runMeasure(cfg, man)
	}
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.GCCycles = ms.NumGC
	out, err := json.Marshal(c)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printLine prints "label: <json>" on standard output.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s: %s\n", label, b)
}

// catalogMetric is one metric entry of BENCHMARK.json.
type catalogMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type catalog struct {
	EndToEnd []catalogMetric `json:"end_to_end"`
	PerLayer []catalogMetric `json:"per_layer"`
}

// loadCatalog reads the metric names and units the result must carry.
func loadCatalog(path string) (catalog, error) {
	var c catalog
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("reading the metric catalog: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return c, errors.New("the metric catalog names no metrics")
	}
	return c, nil
}

// checkCatalog reports every catalog metric missing from got or printed
// with another unit, and every metric of got the catalog does not name.
func checkCatalog(got map[string]metric, want []catalogMetric) []error {
	var errs []error
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s is missing", m.Name))
		case g.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, want %q", m.Name, g.Unit, m.Unit))
		}
	}
	var extra []string
	for name := range got {
		if !named[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		errs = append(errs, fmt.Errorf("metric %s is not in the catalog", name))
	}
	return errs
}
