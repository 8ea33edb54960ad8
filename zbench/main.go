// Command zbench is the repository benchmark. It measures the
// simulator and its zsimd service end to end on three workloads —
// sweep, replay and service — checks every simulated result against an
// oracle, and prints one JSON result object as the last line of its
// standard output.
//
// Usage (from the repository root, through the wrapper that builds the
// binary from the checkout's sources):
//
//	bash zbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics and the tracing overhead. See
// zbench/README.md for the workloads, the metric definitions and the
// layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// DefaultSeed is the seed every claim is developed against;
// HeldOutSeed is the seed a claimed gain must also hold on.
// DefaultSeconds is the measured length the bounds in BENCHMARK.json
// were set from (its run_seconds).
const (
	DefaultSeed    = 1
	HeldOutSeed    = 2013
	DefaultSeconds = 30
)

// Load shape: one process, two simulation workers, two zsimd workers,
// at most two client connections (one submitting, one polling).
const (
	simWorkers     = 2
	serviceWorkers = 2
	clientConns    = 2
)

// recordDefinition is stamped on every result so records_per_s is never
// read against a different definition.
const recordDefinition = "every trace record the engine steps, warmup included"

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for trace files and service state
}

// outcome is what one measured phase of a workload returns: operation
// counts plus the end-to-end metrics.
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// workloadDef runs one workload. run measures the end-to-end metrics
// with tracing off; layers measures the per-layer metrics (traced run).
type workloadDef struct {
	name   string
	run    func(ctx context.Context, o options) (outcome, error)
	layers func(ctx context.Context, o options) (outcome, error)
}

var workloads = []workloadDef{
	{"sweep", runSweep, layersSweep},
	{"replay", runReplay, layersReplay},
	{"service", runService, layersService},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		o      options
		traced int
		record bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, replay or service")
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed (inputs derive from it)")
	flag.Float64Var(&o.seconds, "seconds", DefaultSeconds, "measured seconds per phase")
	flag.IntVar(&traced, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&record, "record-expected", false, "print expected.json regenerated from the serial oracle and exit")
	flag.Parse()

	if record {
		if err := recordExpected(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "zbench:", err)
			return 1
		}
		return 0
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "zbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traced == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "zbench: --seconds must be positive")
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "zbench: unknown --workload %q (sweep, replay, service)\n", o.workload)
		return 2
	}

	// Every file the benchmark writes lives under the checkout.
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	o.work = work

	stamp(o)
	ctx := context.Background()
	run := def.run
	if o.trace {
		run = def.layers
	}
	out, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zbench: %s: %v\n", o.workload, err)
		return 1
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// stamp prints the run's details as a JSON line ahead of the result.
func stamp(o options) {
	s := map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"default_seed":      DefaultSeed,
		"held_out_seed":     HeldOutSeed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"record_definition": recordDefinition,
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"sim_workers":       simWorkers,
		"service_workers":   serviceWorkers,
		"client_conns":      clientConns,
		"go_version":        runtime.Version(),
		"poll_interval_ms":  float64(pollInterval) / float64(time.Millisecond),
		"arrival_rate_hz":   arrivalRate,
	}
	line, _ := json.Marshal(map[string]any{"stamp": s})
	fmt.Println(string(line))
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zbench: "+format+"\n", args...)
}

var errNoSamples = errors.New("no samples measured")
