package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/ctb"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/history"
	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/pht"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

// The traced run. It splits --seconds between the untraced end-to-end
// measurement and the same measurement with the program's span hooks
// switched on (the difference is the tracing overhead), then times calls
// into each layer's public functions on the workload's own inputs.
// Nothing here adds tracing inside the program.

// layerInputs are a workload's inputs in the forms the layer probes
// consume.
type layerInputs struct {
	profiles []workload.Profile // distinct generator profiles
	units    func() []sim.Unit  // the workload's units over generated sources
	specs    []sim.Spec         // the same work as zsimd job specs
	traces   []string           // ZBPT recordings; written from profiles when empty
}

// measureLayers is the traced run of a batch workload (sweep, replay).
func measureLayers(ctx context.Context, o options, b batchSpec, in layerInputs) (outcome, error) {
	o.seconds /= 2
	plain, err := measureBatch(ctx, o, b)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: plain.attempted, failed: plain.failed}

	var (
		rps, util []float64
		steals    int64
	)
	t0 := time.Now()
	for time.Since(t0).Seconds() < o.seconds {
		tr := span.NewTrace()
		p := runPass(ctx, b.build, tr)
		out.attempted += int64(len(p.digests))
		out.failed += int64(countMismatches(p, b.expect))
		rps = append(rps, float64(b.records)/p.wall.Seconds())
		util = append(util, p.shard.Utilization())
		steals += p.shard.Steals
	}
	untraced := plain.metrics["records_per_s"].Value
	traced := median(rps)
	logf("records_per_s untraced %.0f, traced %.0f (%d traced passes)", untraced, traced, len(rps))
	fmt.Printf("{\"tracing\":{\"records_per_s_untraced\":%g,\"records_per_s_traced\":%g}}\n", untraced, traced)
	out.set("tracing.overhead_pct", 100*(untraced/traced-1), "%")
	out.set("sim.utilization", median(util), "ratio")
	out.set("sim.steals", float64(steals)/float64(len(rps)), "count")

	if err := probeLayers(ctx, o, in, &out); err != nil {
		return outcome{}, err
	}
	if err := probeService(ctx, o, in.specs, &out); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// layersService is the traced run of the service workload. Unlike the
// batch workloads, the untraced and the traced measurement each run the
// full --seconds: a half-length open loop would send too few jobs for a
// p90.
func layersService(ctx context.Context, o options) (outcome, error) {
	plain, err := measureService(ctx, o, false)
	if err != nil {
		return outcome{}, err
	}
	traced, err := measureService(ctx, o, true)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		attempted: plain.out.attempted + traced.out.attempted,
		failed:    plain.out.failed + traced.out.failed,
	}
	u, t := plain.out.metrics["job_p90_ms"].Value, traced.out.metrics["job_p90_ms"].Value
	logf("job_p90_ms untraced %.2f, traced %.2f", u, t)
	fmt.Printf("{\"tracing\":{\"job_p90_ms_untraced\":%g,\"job_p90_ms_traced\":%g}}\n", u, t)
	out.set("tracing.overhead_pct", 100*(t/u-1), "%")
	setServiceLayers(&out, plain.lr, traced)

	specs := serviceSpecs(o.seed)
	in := layerInputs{specs: specs}
	for _, s := range specs {
		in.profiles = append(in.profiles, *s.Profile)
	}
	in.units = func() []sim.Unit {
		units := make([]sim.Unit, len(specs))
		for i, s := range specs {
			u, err := s.Unit()
			if err != nil {
				panic(err) // the mix's specs validate by construction
			}
			units[i] = u
		}
		return units
	}
	// The scheduler is not on the service's path; its figures come from
	// one RunUnits pass over the mix.
	_, shard, err := sim.RunUnitsStats(ctx, simWorkers, in.units())
	if err != nil {
		return outcome{}, err
	}
	out.set("sim.utilization", shard.Utilization(), "ratio")
	out.set("sim.steals", float64(shard.Steals), "count")
	if err := probeLayers(ctx, o, in, &out); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// setServiceLayers derives the zsimd and load-generator figures: lag
// and poll resolution from the untraced run, attempt times from the
// traced run's worker spans.
func setServiceLayers(out *outcome, plain loadResult, traced serviceRun) {
	var runMS, waitMS []float64
	for _, j := range traced.lr.jobs {
		run, ok := traced.runs[j.id]
		if !ok || j.done.IsZero() {
			continue
		}
		runMS = append(runMS, run)
		waitMS = append(waitMS, ms(j.done.Sub(j.admitted))-run)
	}
	out.set("zsimd.run_ms", median(runMS), "ms")
	out.set("zsimd.queue_wait_ms", median(waitMS), "ms")
	out.set("loadgen.lag_p90_ms", quantile(plain.lagMS, 0.9), "ms")
	out.set("loadgen.poll_ms", median(plain.pollMS), "ms")
}

// probeService runs a batch workload's specs as one burst of jobs
// through a traced in-process service, for the zsimd figures.
func probeService(ctx context.Context, o options, specs []sim.Spec, out *outcome) error {
	tr := span.NewTrace()
	v, err := startService(filepath.Join(o.work, "svc-probe"), tr)
	if err != nil {
		return err
	}
	lr := burst(ctx, v, specs)
	if err := v.stop(); err != nil {
		return err
	}
	ck := newChecker(specs)
	for i := range lr.jobs {
		out.attempted++
		if err := ck.check(&lr.jobs[i]); err != nil {
			logf("FAILED probe job %d: %v", i, err)
			out.failed++
		}
	}
	setServiceLayers(out, lr, serviceRun{lr: lr, runs: attemptSpans(tr)})
	return nil
}

// probeLayers times each layer's public entry points on the inputs.
func probeLayers(ctx context.Context, o options, in layerInputs, out *outcome) error {
	probeWorkload(in.profiles, out)
	traces := in.traces
	if len(traces) == 0 {
		for i, p := range in.profiles {
			path := filepath.Join(o.work, fmt.Sprintf("layer-%d.zbpt", i))
			if err := trace.WriteFile(path, workload.New(p)); err != nil {
				return err
			}
			traces = append(traces, path)
		}
	}
	if err := probeDecode(traces, out); err != nil {
		return err
	}
	resultJSON, ck, err := probeEngine(ctx, in.units(), out)
	if err != nil {
		return err
	}
	probeTables(in.profiles, out)
	if err := probeSpecUnit(in.specs, out); err != nil {
		return err
	}
	if err := probeJobq(ctx, filepath.Join(o.work, "jobq-probe"), in.specs, resultJSON, out); err != nil {
		return err
	}
	return probeCheckpoint(filepath.Join(o.work, "probe.zbpc"), ck, out)
}

// timeReps runs f reps times and returns the median duration.
func timeReps(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// probeWorkload: workload.New per profile, then Source.Next per record.
func probeWorkload(profiles []workload.Profile, out *outcome) {
	build := timeReps(3, func() {
		for _, p := range profiles {
			workload.New(p)
		}
	})
	out.set("workload.build_ms", ms(build)/float64(len(profiles)), "ms")

	var records int64
	var gen time.Duration
	for _, p := range profiles {
		src := workload.New(p)
		t0 := time.Now()
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			records++
		}
		gen += time.Since(t0)
	}
	out.set("workload.gen_ns_per_record", float64(gen)/float64(records), "ns")
}

// probeDecode: FileSource.FillBatch over each ZBPT recording.
func probeDecode(paths []string, out *outcome) error {
	var records int64
	var dur time.Duration
	b := trace.NewBatch(trace.DefaultBatchCapacity)
	for _, path := range paths {
		fs, err := trace.OpenFileSource(path, 0)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for fs.FillBatch(&b) > 0 {
			records += int64(len(b.Ins))
		}
		dur += time.Since(t0)
		derr := fs.Err()
		_ = fs.Close() // read-only
		if derr != nil {
			return derr
		}
	}
	out.set("trace.decode_ns_per_record", float64(dur)/float64(records), "ns")
	return nil
}

// probeEngine runs every unit's materialized records through Run,
// RunBatched and RunContext (rotating the order per unit), checks that
// the three results agree, and reads the batched run's registry. It
// returns one result's JSON (the jobq probe's Done payload) and a
// mid-run checkpoint of the first unit (the checkpoint probe's input).
func probeEngine(ctx context.Context, units []sim.Unit, out *outcome) ([]byte, *engine.Checkpoint, error) {
	var (
		records, branches, bulk int64
		dur                     [3]time.Duration
		counts                  = map[string]int64{}
		resultJSON              []byte
		ck                      *engine.Checkpoint
	)
	for ui, u := range units {
		ins := trace.Collect(u.NewSource())
		src := trace.NewSliceSource(u.Label, ins)
		for _, in := range ins {
			if in.IsBranch() {
				branches++
			}
		}
		var res [3]engine.Result
		for k := 0; k < 3; k++ {
			path := (ui + k) % 3
			eng := engine.New(u.Config, u.Params)
			t0 := time.Now()
			switch path {
			case 0:
				res[0] = eng.Run(src, u.ConfigName)
			case 1:
				res[1] = eng.RunBatched(src, u.ConfigName)
			case 2:
				var err error
				if res[2], err = eng.RunContext(ctx, src, u.ConfigName, 0); err != nil {
					return nil, nil, err
				}
			}
			dur[path] += time.Since(t0)
			if path == 1 {
				b, _ := eng.BatchPathCounts()
				bulk += b
			}
		}
		records += int64(len(ins))
		out.attempted += 2
		for _, r := range res[1:] {
			if digest(r) != digest(res[0]) {
				logf("MISMATCH engine paths on %s", u.Label)
				out.failed++
			}
		}
		for _, m := range registryCounters {
			counts[m] += res[1].Metrics.Counter(m)
		}
		if ui == 0 {
			var err error
			if resultJSON, err = json.Marshal(res[1]); err != nil {
				return nil, nil, err
			}
			params := u.Params
			params.CheckpointInterval = int64(len(ins) / 2)
			params.CheckpointSink = func(c *engine.Checkpoint) { ck = c }
			engine.New(u.Config, params).Run(src, u.ConfigName)
		}
	}
	rec := float64(records)
	out.set("engine.run_ns_per_record", float64(dur[0])/rec, "ns")
	out.set("engine.batched_ns_per_record", float64(dur[1])/rec, "ns")
	out.set("engine.ctx_ns_per_record", float64(dur[2])/rec, "ns")
	out.set("engine.bulk_share", float64(bulk)/rec, "ratio")
	out.set("engine.branch_share", float64(branches)/rec, "ratio")
	perK := func(name string) float64 { return 1000 * float64(counts[name]) / rec }
	out.set("core.predictions_per_krec", perK("hier_predictions_total"), "1/krec")
	out.set("core.transfer_reads_per_krec", perK("hier_transfer_reads_total"), "1/krec")
	out.set("core.miss_reports_per_krec", perK("hier_miss_reports_total"), "1/krec")
	out.set("core.surprise_installs_per_krec", perK("hier_surprise_installs_total"), "1/krec")
	out.set("btb.btb1_lookups_per_krec", perK("btb1_lookups_total"), "1/krec")
	for _, t := range []string{"btb1", "btbp", "btb2"} {
		ratio := 0.0
		if n := counts[t+"_lookups_total"]; n > 0 {
			ratio = float64(counts[t+"_line_hits_total"]) / float64(n)
		}
		out.set("btb."+t+"_line_hit_ratio", ratio, "ratio")
	}
	if ck == nil {
		return nil, nil, fmt.Errorf("no checkpoint captured")
	}
	return resultJSON, ck, nil
}

// registryCounters are the Engine.Registry() counters the traced run
// reports (summed over units; configurations without a BTB2 simply
// lack the btb2 ones).
var registryCounters = []string{
	"hier_predictions_total", "hier_transfer_reads_total",
	"hier_miss_reports_total", "hier_surprise_installs_total",
	"btb1_lookups_total", "btb1_line_hits_total",
	"btbp_lookups_total", "btbp_line_hits_total",
	"btb2_lookups_total", "btb2_line_hits_total",
}

// tableStreamCap bounds the branch stream the table probes replay.
const tableStreamCap = 1 << 18

// probeTables replays the workload's branch-address stream through a
// BTB1-geometry table (insert, then line lookup) and the PHT and CTB
// (lookup with each branch's own path history).
func probeTables(profiles []workload.Profile, out *outcome) {
	var stream []trace.Inst
	per := tableStreamCap / len(profiles)
	for _, p := range profiles {
		src := workload.New(p)
		for n := 0; n < per; {
			in, ok := src.Next()
			if !ok {
				break
			}
			if in.IsBranch() {
				stream = append(stream, in)
				n++
			}
		}
	}
	n := float64(len(stream))
	entry := func(in trace.Inst) btb.Entry {
		return btb.Entry{Valid: true, Addr: in.Addr, Target: in.Target, Dir: 2, Length: in.Length}
	}

	var warm *btb.Table
	insert := timeReps(3, func() {
		warm = btb.New(btb.BTB1Config)
		for _, in := range stream {
			warm.Insert(entry(in))
		}
	})
	out.set("btb.insert_ns", float64(insert)/n, "ns")
	var hits []btb.Hit
	lookup := timeReps(3, func() {
		for _, in := range stream {
			hits = warm.LookupLine(zaddr.RowBase(in.Addr), hits[:0])
		}
	})
	out.set("btb.lookup_ns", float64(lookup)/n, "ns")

	hs := make([]history.History, len(stream))
	var h history.History
	pt, ct := pht.New(pht.DefaultEntries), ctb.New(ctb.DefaultEntries)
	for i, in := range stream {
		hs[i] = h
		pt.Update(&h, in.Addr, in.Taken)
		ct.Update(&h, in.Addr, in.Target)
		h.RecordPrediction(in.Addr, in.Taken)
	}
	phtLookup := timeReps(3, func() {
		for i, in := range stream {
			pt.Lookup(&hs[i], in.Addr)
		}
	})
	ctbLookup := timeReps(3, func() {
		for i, in := range stream {
			ct.Lookup(&hs[i], in.Addr)
		}
	})
	out.set("pht.lookup_ns", float64(phtLookup)/n, "ns")
	out.set("ctb.lookup_ns", float64(ctbLookup)/n, "ns")
}

// probeSpecUnit: Spec.Unit per spec (admission's build-and-validate).
func probeSpecUnit(specs []sim.Spec, out *outcome) error {
	var err error
	d := timeReps(3, func() {
		for _, s := range specs {
			if _, uerr := s.Unit(); uerr != nil {
				err = uerr
			}
		}
	})
	out.set("sim.spec_unit_ms", ms(d)/float64(len(specs)), "ms")
	return err
}

// jobqOps is how many enqueue/done pairs the journal probe times.
const jobqOps = 24

// probeJobq: journal append+fsync for Enqueue and Done on a fresh
// queue, with the workload's specs as payloads and a real result.
func probeJobq(ctx context.Context, dir string, specs []sim.Spec, result []byte, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	q, _, err := jobq.Open(dir, jobq.Options{MaxDepth: jobqOps})
	if err != nil {
		return err
	}
	var enq, done []float64
	for i := 0; i < jobqOps; i++ {
		payload, err := json.Marshal(specs[i%len(specs)])
		if err != nil {
			q.Close()
			return err
		}
		t0 := time.Now()
		if _, err := q.Enqueue("bench", payload); err != nil {
			q.Close()
			return err
		}
		enq = append(enq, ms(time.Since(t0)))
		j, err := q.Next(ctx)
		if err != nil {
			q.Close()
			return err
		}
		t0 = time.Now()
		if err := q.Done(j.ID, result); err != nil {
			q.Close()
			return err
		}
		done = append(done, ms(time.Since(t0)))
	}
	out.set("jobq.enqueue_ms", median(enq), "ms")
	out.set("jobq.done_ms", median(done), "ms")
	return q.Close()
}

// probeCheckpoint: WriteCheckpointFile of a mid-run checkpoint.
func probeCheckpoint(path string, ck *engine.Checkpoint, out *outcome) error {
	var err error
	d := timeReps(9, func() {
		if werr := engine.WriteCheckpointFile(path, ck); werr != nil {
			err = werr
		}
	})
	out.set("engine.checkpoint_write_ms", ms(d), "ms")
	return err
}
