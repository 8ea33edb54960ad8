package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
)

// The sweep and replay workloads share one measured shape: a pass
// submits a set of simulation units to sim.RunUnits at once, and the
// timed phase repeats passes until --seconds have elapsed. Every unit
// is a job: it is admitted when its worker has built its source, and
// done when that source runs dry.

// unitTiming is one unit's admission and completion time.
type unitTiming struct{ admitted, finished time.Time }

// timedSource stamps the moment its source first reports end of
// stream. It forwards FillBatch, so the batched engine path pays no
// per-record cost for the wrapper.
type timedSource struct {
	trace.Source
	t *unitTiming
}

func (s *timedSource) FillBatch(b *trace.Batch) int {
	n := trace.FillBatch(s.Source, b)
	if n == 0 && s.t.finished.IsZero() {
		s.t.finished = time.Now()
	}
	return n
}

// timeUnits wraps every unit's source constructor with a timing probe.
// The probes are written by the worker running the unit and read after
// RunUnits returns.
func timeUnits(units []sim.Unit) []unitTiming {
	ts := make([]unitTiming, len(units))
	for i := range units {
		next, t := units[i].NewSource, &ts[i]
		units[i].NewSource = func() trace.Source {
			src := next()
			t.admitted = time.Now()
			return &timedSource{Source: src, t: t}
		}
	}
	return ts
}

// passResult is one measured pass.
type passResult struct {
	wall    time.Duration
	admitMS []float64
	jobMS   []float64
	digests []string
	err     error
	shard   sim.ShardStats
}

// runPass builds the pass's units with build (inside the timed window:
// unit construction is part of what a sweep pays) and runs them on the
// work-stealing pool. tr, when non-nil, traces the pass instead of
// timing units (wrapping sources would hide FileSource span hooks).
func runPass(ctx context.Context, build func() []sim.Unit, tr *span.Trace) passResult {
	start := time.Now()
	units := build()
	var timings []unitTiming
	if tr == nil {
		timings = timeUnits(units)
	}
	res, shard, err := sim.RunUnitsTraced(ctx, simWorkers, units, tr)
	p := passResult{wall: time.Since(start), err: err, shard: shard}
	for _, t := range timings {
		if t.finished.IsZero() {
			continue // the unit failed; its digest says so
		}
		p.admitMS = append(p.admitMS, ms(t.admitted.Sub(start)))
		p.jobMS = append(p.jobMS, ms(t.finished.Sub(start)))
	}
	p.digests = make([]string, len(res))
	for i := range res {
		p.digests[i] = digest(res[i])
	}
	return p
}

// digest fingerprints every simulated statistic of a result (its JSON
// form: cycles, outcome counts, transfers, per-structure stats).
func digest(r engine.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// batchSpec describes one batch workload for the shared measurement
// loop.
type batchSpec struct {
	setup   func() (*passResult, error) // one set-up repetition (timed for setup_s); a pass it runs is checked too
	build   func() []sim.Unit           // the units of one pass
	records int64                       // trace records one pass steps, warmup included
	expect  []unitExpect                // the oracle's result for every unit of a pass
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// timedSetup runs setup setupReps times and returns the median seconds.
func timedSetup(setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// measureBatch runs the timed phase of a batch workload and checks every
// unit of every pass, set-up passes included, against the oracle.
func measureBatch(ctx context.Context, o options, b batchSpec) (outcome, error) {
	var warm []passResult
	setupS, err := timedSetup(func() error {
		p, err := b.setup()
		if p != nil {
			warm = append(warm, *p)
		}
		return err
	})
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	var (
		out    outcome
		rps    []float64
		lat    = map[string][]float64{} // metric -> one value per pass
		passes []passResult
	)
	heap := startHeapSampler()
	t0 := time.Now()
	for time.Since(t0).Seconds() < o.seconds {
		p := runPass(ctx, b.build, nil)
		passes = append(passes, p)
		rps = append(rps, float64(b.records)/p.wall.Seconds())
		if len(p.jobMS) > 0 {
			lat["admit_p90_ms"] = append(lat["admit_p90_ms"], quantile(p.admitMS, 0.9))
			lat["job_p90_ms"] = append(lat["job_p90_ms"], quantile(p.jobMS, 0.9))
		}
	}
	heapMB := heap.peakMB()

	for _, p := range append(warm, passes...) {
		out.attempted += int64(len(p.digests))
		out.failed += int64(countMismatches(p, b.expect))
	}
	if len(lat["job_p90_ms"]) == 0 {
		return outcome{}, errNoSamples
	}
	logf("%d passes after %d set-up passes, %d units, %d failed", len(passes), len(warm), out.attempted, out.failed)
	out.set("setup_s", setupS, "s")
	out.set("records_per_s", median(rps), "1/s")
	out.set("heap_peak_mb", heapMB, "MiB")
	out.set("success_ratio", float64(out.attempted-out.failed)/float64(out.attempted), "ratio")
	// Each pass is one submission of the whole unit set, so a latency
	// quantile is taken within each pass and the run reports its median
	// over passes: a few slow units cannot move it on their own.
	for name, perPass := range lat {
		out.set(name, median(perPass), "ms")
	}
	return out, nil
}

// countMismatches counts the units of a pass whose result differs from
// the oracle; a pass error counts at least one failure.
func countMismatches(p passResult, want []unitExpect) int {
	bad := 0
	for i, d := range p.digests {
		if i < len(want) && d == want[i].Digest {
			continue
		}
		logf("MISMATCH unit %d: digest %s", i, d)
		bad++
	}
	if p.err != nil {
		logf("pass error: %v", p.err)
		if bad == 0 {
			bad = 1
		}
	}
	return bad
}
