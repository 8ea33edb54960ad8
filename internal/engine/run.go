package engine

import (
	"context"
	"fmt"

	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/trace"
)

// The engine has one run loop. Run, RunContext and Resume only set up
// the starting state — power-on, or a restored checkpoint — and hand
// the source to run, which steps committed records one at a time in
// trace order. zsimd executes jobs with per-job deadlines and must
// survive SIGTERM mid-trace, so the loop polls a context between
// records and, when canceled, hands the engine's exact stopping state
// to the configured CheckpointSink before returning: the job resumes
// from that record boundary instead of restarting. A run that is never
// canceled returns the same Result whichever entry started it, which is
// what lets the load testbed hold recovered jobs against the serial
// checkpoint+resume oracle.

// DefaultCancelPoll is how many records the run loop steps between
// context polls when pollEvery <= 0. Small enough that a deadline or
// drain lands within microseconds of simulated work, large enough that
// the poll is invisible next to the per-record stepping cost.
const DefaultCancelPoll = 1024

// ErrRunCanceled reports a run stopped by its context. Use errors.Is;
// the returned error also wraps the context's own cause
// (context.Canceled or context.DeadlineExceeded).
var ErrRunCanceled = fmt.Errorf("engine: run canceled")

// Run simulates src to completion under configName and returns the
// result. The engine state is reset first, so one Engine can run several
// traces sequentially (each from power-on state).
func (e *Engine) Run(src trace.Source, configName string) Result {
	// A background context is never canceled, so the error is always nil.
	res, _ := e.RunContext(context.Background(), src, configName, 0)
	return res
}

// RunContext is Run with cooperative cancellation: every pollEvery
// records it checks ctx and, once ctx is done, stops at the current
// record boundary. If a CheckpointSink is configured the engine's state
// at that exact boundary is checkpointed to it first, so no progress is
// lost. The returned error wraps both ErrRunCanceled and ctx's error;
// the partial Result carries whatever was committed before the stop and
// must not be reported as a finished run.
func (e *Engine) RunContext(ctx context.Context, src trace.Source, configName string, pollEvery int) (Result, error) {
	e.reset()
	src.Reset()
	e.res.Trace = src.Name()
	e.res.Config = configName
	err := e.run(ctx, src, pollEvery)
	return e.res, err
}

// Resume continues a checkpointed simulation: the engine is reset, the
// checkpoint state restored, the already-processed prefix of src
// skipped, and the remainder simulated with the same cancellation as
// RunContext (a context poll every DefaultCancelPoll records). The
// engine must have been built from the same hierarchy config and
// compatible params as the original run; src must be the same trace. A
// canceled resume re-checkpoints at its stopping boundary (strictly
// later than ck), so repeated interrupt/resume cycles ratchet forward.
func (e *Engine) Resume(ctx context.Context, src trace.Source, ck *Checkpoint) (Result, error) {
	e.reset()
	src.Reset()
	if n := src.Name(); n != ck.Trace {
		return Result{}, fmt.Errorf("engine: resume trace %q does not match checkpoint trace %q", n, ck.Trace)
	}
	if err := e.restore(ck); err != nil {
		return Result{}, err
	}
	for skipped := int64(0); skipped < ck.Instructions; skipped++ {
		if _, ok := src.Next(); !ok {
			return Result{}, fmt.Errorf("engine: trace ended after %d records while skipping the %d-record checkpoint prefix",
				skipped, ck.Instructions)
		}
	}
	err := e.run(ctx, src, DefaultCancelPoll)
	return e.res, err
}

// run steps src from the engine's current state to the end of the trace
// or until ctx is done, polling ctx every pollEvery records
// (DefaultCancelPoll when pollEvery <= 0). Records arrive through a
// reusable batch (trace.FillBatch), so a FileSource decodes a whole
// batch per call without allocating; the batch size never changes what
// is simulated, and a cancel may stop mid-batch.
//
// When Params.Spans is set the run is traced: one phase span per
// warmup/steady region (rotated at batch granularity — the first batch
// that crosses the warmup boundary closes the warmup span) and one
// batch span per batch carrying its record count. Span data never
// influences the simulation.
func (e *Engine) run(ctx context.Context, src trace.Source, pollEvery int) error {
	if pollEvery <= 0 {
		pollEvery = DefaultCancelPoll
	}
	rec := e.params.Spans
	phaseName := "steady"
	if e.params.WarmupInstructions > 0 && !e.warmTaken {
		phaseName = "warmup"
	}
	phase := rec.Start(span.KindPhase, phaseName, e.params.SpanParent)
	phaseStart := e.res.Instructions
	b := trace.NewBatch(trace.DefaultBatchCapacity)
	sincePoll := 0
	for trace.FillBatch(src, &b) > 0 {
		sb := rec.Start(span.KindBatch, "batch", phase.ID())
		for i := range b.Ins {
			if sincePoll == pollEvery {
				sincePoll = 0
				if err := ctx.Err(); err != nil {
					sb.EndArgs(int64(i), 0)
					phase.EndArgs(e.res.Instructions-phaseStart, 0)
					if e.params.CheckpointSink != nil {
						e.params.CheckpointSink(e.Checkpoint())
					}
					return fmt.Errorf("%w after %d records: %w", ErrRunCanceled, e.res.Instructions, err)
				}
			}
			e.step(b.Ins[i])
			sincePoll++
		}
		sb.EndArgs(int64(len(b.Ins)), 0)
		if rec.Enabled() && phaseName == "warmup" && e.warmTaken {
			phase.EndArgs(e.res.Instructions-phaseStart, 0)
			phaseName = "steady"
			phaseStart = e.res.Instructions
			phase = rec.Start(span.KindPhase, phaseName, e.params.SpanParent)
		}
	}
	phase.EndArgs(e.res.Instructions-phaseStart, 0)
	e.finishResult()
	return nil
}

// RunBatched is Run. It exists only because the frozen benchmark module
// (zbench) still calls it, and goes in the next benchmark change.
func (e *Engine) RunBatched(src trace.Source, configName string) Result {
	return e.Run(src, configName)
}

// BatchPathCounts reports no bulk records and every record stepped
// (warmup included) as slow: the engine has no bulk path. It exists only
// because the frozen benchmark module (zbench) still calls it, and goes
// in the next benchmark change.
func (e *Engine) BatchPathCounts() (bulk, slow int64) {
	if e.warmTaken {
		return 0, e.res.Instructions + e.params.WarmupInstructions
	}
	return 0, e.res.Instructions
}
