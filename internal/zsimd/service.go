// Package zsimd is the simulation-as-a-service core behind cmd/zsimd:
// a pool of simulation workers fed from a crash-safe persistent job
// queue (internal/jobq), with admission control, retry/dead-letter
// policy, per-job deadlines, ZBPC checkpoint/resume across restarts,
// graceful drain, and a full observability surface on the existing
// obs registry, Live endpoints, and span tracer.
//
// Failure model (see docs/ROBUSTNESS.md):
//
//   - kill -9 at any instant: acknowledged jobs survive (fsynced
//     journal); jobs running at the crash are requeued and resume from
//     their last durable ZBPC checkpoint, and the resumed result is
//     bit-identical to a serial checkpoint+resume oracle.
//   - overload: new work is shed with 429 + Retry-After (bounded
//     pending backlog, per-tenant token buckets) before running work is
//     ever stalled.
//   - poison jobs: panics are isolated to their job; a job that keeps
//     failing dead-letters after MaxAttempts with capped exponential
//     backoff + deterministic jitter between attempts.
//   - SIGTERM: drain in-flight jobs up to a deadline, checkpoint
//     whatever is still running at the exact record boundary it
//     reached, and hand the rest to the next incarnation.
package zsimd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/sim"
)

// Config tunes the service. Zero values select documented defaults.
type Config struct {
	// Dir is the persistent state directory: job journal plus per-job
	// ZBPC checkpoints. Required.
	Dir string

	// Workers is the simulation worker pool size (default 2).
	Workers int

	// MaxQueueDepth bounds the pending backlog; submissions beyond it
	// get 429 (default 64).
	MaxQueueDepth int

	// MaxAttempts dead-letters a job after this many failed attempts
	// (default 3).
	MaxAttempts int

	// Retry shapes the backoff between attempts (defaults to
	// jobq.DefaultBackoff).
	Retry jobq.Backoff

	// JobDeadline bounds one attempt's wall time; 0 means unbounded.
	// A deadline hit counts as a failed attempt.
	JobDeadline time.Duration

	// CheckpointInterval is how many committed instructions between
	// durable ZBPC checkpoints of a running job (default 200k; < 0
	// disables interval checkpoints — cancellation still checkpoints).
	CheckpointInterval int64

	// DrainTimeout is how long Shutdown lets in-flight jobs finish
	// before checkpoint-and-release (default 5s).
	DrainTimeout time.Duration

	// TenantRate and TenantBurst shape each tenant's admission token
	// bucket (rate <= 0 disables rate limiting).
	TenantRate  float64
	TenantBurst int

	// Now supplies the wall clock for queue backoffs and admission
	// buckets (tests inject a fake). Nil means time.Now.
	Now func() time.Time

	// Spans, when non-nil, collects a span per worker and per job
	// attempt, with the engine's phase spans nested beneath.
	Spans *span.Trace
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.JobDeadline < 0 {
		c.JobDeadline = 0
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 200_000
	}
	if c.CheckpointInterval < 0 {
		c.CheckpointInterval = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 8
	}
	return c
}

// Service is one zsimd instance.
type Service struct {
	cfg     Config
	q       *jobq.Queue
	rec     jobq.Recovery
	limiter *jobq.TenantLimiter

	m *metrics

	// dequeueCtx gates pulling new jobs; jobCtx gates running ones.
	// Shutdown cancels the first immediately and the second at the
	// drain deadline.
	dequeueCtx    context.Context
	cancelDequeue context.CancelFunc
	jobCtx        context.Context
	cancelJobs    context.CancelCauseFunc

	draining atomic.Bool
	wg       sync.WaitGroup
	started  atomic.Bool
}

// errDraining marks job cancellations caused by shutdown rather than a
// deadline: those release the job (no attempt burned) instead of
// failing it.
var errDraining = errors.New("zsimd: draining for shutdown")

// New opens (or creates) the service state in cfg.Dir and recovers any
// jobs a previous incarnation left behind. Call Start to begin
// executing jobs.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("zsimd: Config.Dir is required")
	}
	q, rec, err := jobq.Open(cfg.Dir, jobq.Options{
		MaxDepth:    cfg.MaxQueueDepth,
		MaxAttempts: cfg.MaxAttempts,
		Retry:       cfg.Retry,
		Now:         cfg.Now,
	})
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		q:       q,
		rec:     rec,
		limiter: jobq.NewTenantLimiter(cfg.TenantRate, cfg.TenantBurst, cfg.Now),
		m:       newMetrics(q),
	}
	s.dequeueCtx, s.cancelDequeue = context.WithCancel(context.Background())
	s.jobCtx, s.cancelJobs = context.WithCancelCause(context.Background())
	s.m.jobsRecovered(len(rec.Requeued), rec.Damage != nil)
	return s, nil
}

// Recovery reports what New found in the persistent state.
func (s *Service) Recovery() jobq.Recovery { return s.rec }

// Queue exposes the underlying queue (tests, runbooks).
func (s *Service) Queue() *jobq.Queue { return s.q }

// Start launches the worker pool.
func (s *Service) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
}

// worker pulls and executes jobs until the dequeue context dies.
func (s *Service) worker(id int) {
	defer s.wg.Done()
	var rec *span.Recorder
	var ws span.Span
	if s.cfg.Spans != nil {
		rec = s.cfg.Spans.NewRecorder(id + 1)
		ws = rec.Start(span.KindWorker, "svc-worker", 0)
		defer func() {
			ws.EndArgs(0, 0)
			s.cfg.Spans.Adopt(rec)
		}()
	}
	for {
		if s.dequeueCtx.Err() != nil {
			return
		}
		job, err := s.q.Next(s.dequeueCtx)
		if err != nil {
			return
		}
		s.m.inflightDelta(+1)
		s.runJob(job, rec, ws.ID())
		s.m.inflightDelta(-1)
	}
}

// runJob executes one attempt of one job, translating the outcome into
// a queue transition: Done, Fail (retry or dead-letter), or Release
// (shutdown drain). Panics are isolated to the job.
func (s *Service) runJob(job jobq.Job, rec *span.Recorder, parent span.ID) {
	start := wallStart()
	var js span.Span
	if rec.Enabled() {
		js = rec.Start(span.KindUnit, job.ID+"/"+job.Tenant, parent)
	}
	res, runErr := s.execute(job, rec, js.ID())
	if rec.Enabled() {
		js.EndArgs(res.Instructions, int64(job.Attempt))
	}

	switch {
	case runErr == nil:
		payload, err := json.Marshal(res)
		if err != nil {
			payload = []byte(fmt.Sprintf(`{"marshalError":%q}`, err.Error()))
		}
		if err := s.q.Done(job.ID, payload); err == nil {
			s.m.jobDone(job.Tenant, res.Instructions, wallElapsedMillis(start))
		}
	case errors.Is(runErr, engine.ErrRunCanceled) && errors.Is(context.Cause(s.jobCtx), errDraining):
		// Shutdown drain: the engine already checkpointed the stop
		// boundary through the sink; hand the job back untouched.
		if err := s.q.Release(job.ID); err == nil {
			s.m.jobReleased()
		}
	default:
		dead, _, err := s.q.Fail(job.ID, runErr.Error())
		if err != nil {
			return
		}
		if dead {
			s.m.jobDead(job.Tenant)
		} else {
			s.m.jobRetried(job.Tenant)
		}
	}
}

// execute runs the simulation attempt itself: spec decode, checkpoint
// plumbing, resume-or-run, panic isolation.
func (s *Service) execute(job jobq.Job, rec *span.Recorder, parent span.ID) (res engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("zsimd: job %s panicked: %v\n%s", job.ID, r, debug.Stack())
		}
	}()

	var spec sim.Spec
	if jerr := json.Unmarshal(job.Payload, &spec); jerr != nil {
		return engine.Result{}, fmt.Errorf("zsimd: job %s payload does not decode: %w", job.ID, jerr)
	}
	unit, uerr := spec.Unit()
	if uerr != nil {
		return engine.Result{}, fmt.Errorf("zsimd: job %s spec rejected: %w", job.ID, uerr)
	}

	params := unit.Params
	if s.cfg.CheckpointInterval > 0 {
		params.CheckpointInterval = s.cfg.CheckpointInterval
	}
	params.CheckpointSink = func(ck *engine.Checkpoint) {
		// Durability order matters: the checkpoint file must be on disk
		// before the journal points at it.
		if werr := engine.WriteCheckpointFile(s.q.CheckpointPath(job.ID), ck); werr != nil {
			return
		}
		if merr := s.q.MarkCheckpoint(job.ID, ck.Instructions); merr == nil {
			s.m.checkpointWritten()
		}
	}
	if rec.Enabled() {
		params.Spans = rec
		params.SpanParent = parent
	}

	ctx := s.jobCtx
	if s.cfg.JobDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobDeadline)
		defer cancel()
	}

	eng := engine.New(unit.Config, params)
	src := unit.NewSource()

	// Resume from the job's durable checkpoint when one exists; any
	// problem reading it falls back to a from-scratch run (the
	// checkpoint is an optimization, never a correctness dependency).
	if job.CheckpointAt > 0 {
		if ck, cerr := engine.ReadCheckpointFile(s.q.CheckpointPath(job.ID)); cerr == nil {
			s.q.MarkResumedFrom(job.ID, ck.Instructions)
			s.m.resumed()
			return eng.Resume(ctx, src, ck)
		}
	}
	s.q.MarkResumedFrom(job.ID, 0)
	return eng.RunContext(ctx, src, unit.ConfigName, engine.DefaultCancelPoll)
}

// Shutdown drains the service: no new jobs are admitted or dequeued;
// in-flight jobs get up to DrainTimeout (bounded additionally by ctx)
// to finish, after which they are canceled — each checkpoints the exact
// record boundary it reached and returns to pending for the next
// incarnation. The queue journal is closed last. Idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancelDequeue()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()

	drain := time.NewTimer(s.cfg.DrainTimeout)
	defer drain.Stop()
	select {
	case <-done:
	case <-drain.C:
		s.cancelJobs(errDraining)
	case <-ctx.Done():
		s.cancelJobs(errDraining)
	}
	// After cancellation workers unwind within one poll interval; wait
	// without a bound — RunContext's poll guarantees progress.
	<-done
	return s.q.Close()
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// wallStart/wallElapsedMillis are the service's job-latency clock.
func wallStart() time.Time { return time.Now() }

func wallElapsedMillis(t0 time.Time) int64 { return int64(time.Since(t0) / time.Millisecond) }
