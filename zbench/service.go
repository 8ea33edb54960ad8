package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zsimd"
)

// The service workload: an in-process zsimd served over loopback HTTP,
// driven by an open loop — job i is due at t0 + i/arrivalRate whether
// or not earlier jobs have finished, and every latency is measured from
// the job's due time, so a stall also charges the jobs queued behind
// it.
const (
	// arrivalRate is fixed at roughly half the measured capacity on
	// this mix (about 15 jobs/s on a 2-core Xeon; see README.md), so
	// the queue stays short but not empty.
	arrivalRate = 7

	// arrivalInterval is the open loop's spacing between due times.
	arrivalInterval = time.Second / arrivalRate

	// pollInterval is the poller's sweep period: each sweep GETs every
	// outstanding job once.
	pollInterval = 5 * time.Millisecond

	// jobTimeout bounds how long after its due time a job may take
	// before it counts as failed.
	jobTimeout = 60 * time.Second

	// minJobs is the fewest open-loop jobs a run may send: fewer would
	// leave p90 resting on a handful of jobs.
	minJobs = 100
)

// mixEntry is one job template of the service mix.
type mixEntry struct {
	profile string
	insts   int
	weight  int
}

// serviceMix covers the service's three cost regimes: short jobs on
// small-footprint profiles (most of the traffic), jobs longer than the
// 200k-record checkpoint interval (so checkpoint fsyncs happen), and a
// large-footprint profile whose program build at admission shows.
var serviceMix = []mixEntry{
	{"tpf-airline", 60_000, 4},
	{"zlinux-informix", 60_000, 4},
	{"zos-lspr-cb84", 60_000, 3},
	{"zos-appserv", 60_000, 3},
	{"tpf-airline", 240_000, 3},
	{"zos-trade6", 60_000, 3},
}

// seededProfile is a Table 4 profile whose generator seed is shifted by
// the workload seed; seed 0 reproduces the published profile exactly.
func seededProfile(name string, insts int, seed int64) workload.Profile {
	p, err := workload.ByName(name, insts)
	if err != nil {
		panic(err) // the benchmark names only Table 4 profiles
	}
	p.Seed += seed * 1_000_003
	return p
}

// serviceSpecs returns one job spec per mix entry.
func serviceSpecs(seed int64) []sim.Spec {
	specs := make([]sim.Spec, len(serviceMix))
	for i, m := range serviceMix {
		p := seededProfile(m.profile, m.insts, seed)
		specs[i] = sim.Spec{Profile: &p, Config: sim.ConfigBTB2}
	}
	return specs
}

// serviceSchedule returns n mix indices in a fixed order: a smooth
// weighted round-robin that spreads each mix entry evenly, every 20 jobs
// holding each entry exactly weight times. The order does not depend on
// the seed, so long jobs never cluster by chance and the run-to-run
// spread comes from the program and the host, not from the job order.
// The seed still varies every job's generated program.
func serviceSchedule(n int) []int {
	total := 0
	for _, m := range serviceMix {
		total += m.weight
	}
	credit := make([]int, len(serviceMix))
	out := make([]int, n)
	for k := range out {
		best := 0
		for i, m := range serviceMix {
			credit[i] += m.weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		out[k] = best
	}
	return out
}

// svc is one running service instance and its HTTP front end.
type svc struct {
	s   *zsimd.Service
	srv *obs.Server
	url string
	dir string
}

func startService(dir string, spans *span.Trace) (*svc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := zsimd.New(zsimd.Config{Dir: dir, Workers: serviceWorkers, Spans: spans})
	if err != nil {
		return nil, err
	}
	s.Start()
	srv := obs.NewHandlerServer(s.Handler())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = s.Shutdown(context.Background())
		return nil, err
	}
	return &svc{s: s, srv: srv, url: "http://" + addr, dir: dir}, nil
}

// stop shuts the front end and the service down (adopting worker spans
// into the trace) and removes the state directory.
func (v *svc) stop() error {
	err := v.srv.Shutdown(5 * time.Second)
	if serr := v.s.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(v.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRecord is one job as the load generator saw it.
type jobRecord struct {
	mix      int
	due      time.Time
	sent     time.Time
	admitted time.Time // 202 received
	done     time.Time // seen done (or dead) by the poller
	status   int
	id       string
	state    jobq.State
	attempts int
	result   json.RawMessage
	err      error
}

// loadResult is one open-loop run.
type loadResult struct {
	jobs   []jobRecord
	t0     time.Time
	end    time.Time // last job seen terminal
	lagMS  []float64 // send time minus due time, per job
	pollMS []float64 // poller sweep periods
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// openLoop submits one job per schedule entry, job i due at
// t0 + i*interval, over one connection, while a poller on a second
// connection sweeps the outstanding jobs every pollInterval until each
// is done or dead, or jobTimeout passes after the last due time.
func openLoop(ctx context.Context, url string, specs []sim.Spec, schedule []int, interval time.Duration) loadResult {
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(struct {
			Tenant string   `json:"tenant"`
			Spec   sim.Spec `json:"spec"`
		}{"bench", s})
		if err != nil {
			panic(err) // specs are plain data
		}
		bodies[i] = b
	}
	submitC, pollC := newClient(), newClient()
	defer submitC.CloseIdleConnections()
	defer pollC.CloseIdleConnections()

	lr := loadResult{jobs: make([]jobRecord, len(schedule)), t0: time.Now().Add(20 * time.Millisecond)}
	admitted := make(chan int, len(schedule)) // one send per job
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(admitted)
		for i, m := range schedule {
			j := &lr.jobs[i]
			j.mix = m
			j.due = lr.t0.Add(time.Duration(i) * interval)
			if d := time.Until(j.due); d > 0 {
				time.Sleep(d)
			}
			j.sent = time.Now()
			j.status, j.id, j.err = post(ctx, submitC, url, bodies[m])
			j.admitted = time.Now()
			if j.err == nil && j.status == http.StatusAccepted {
				admitted <- i
			}
		}
	}()
	go func() {
		defer wg.Done()
		lr.pollMS = pollUntilTerminal(ctx, pollC, url, lr.jobs, admitted)
	}()
	wg.Wait()
	for i := range lr.jobs {
		j := &lr.jobs[i]
		lr.lagMS = append(lr.lagMS, ms(j.sent.Sub(j.due)))
		if j.done.After(lr.end) {
			lr.end = j.done
		}
	}
	return lr
}

// pollUntilTerminal sweeps every admitted, unfinished job once per
// pollInterval and records when each is first seen done or dead. It
// returns the measured sweep periods.
func pollUntilTerminal(ctx context.Context, c *http.Client, url string, jobs []jobRecord, admitted <-chan int) []float64 {
	var (
		outstanding []int
		periods     []float64
		last        time.Time
		open        = true
	)
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for open || len(outstanding) > 0 {
		// Collect newly admitted jobs without blocking the sweep.
	drain:
		for open {
			select {
			case i, ok := <-admitted:
				if !ok {
					open = false
					break drain
				}
				outstanding = append(outstanding, i)
			default:
				break drain
			}
		}
		now := time.Now()
		if !last.IsZero() {
			periods = append(periods, ms(now.Sub(last)))
		}
		last = now
		keep := outstanding[:0]
		for _, i := range outstanding {
			j := &jobs[i]
			job, err := getJob(ctx, c, url, j.id)
			switch {
			case err == nil && (job.State == jobq.StateDone || job.State == jobq.StateDead):
				j.done, j.state, j.attempts, j.result = time.Now(), job.State, job.Attempt, job.Result
			case time.Since(j.due) > jobTimeout:
				j.err = fmt.Errorf("job %s not terminal %v after its due time (last poll error: %v)", j.id, jobTimeout, err)
			default:
				keep = append(keep, i)
			}
		}
		outstanding = keep
		select {
		case <-ctx.Done():
			return periods
		case <-tick.C:
		}
	}
	return periods
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var job jobq.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			return resp.StatusCode, "", err
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	}
	return resp.StatusCode, job.ID, nil
}

func getJob(ctx context.Context, c *http.Client, url, id string) (jobq.Job, error) {
	var job jobq.Job
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+id, nil)
	if err != nil {
		return job, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return job, fmt.Errorf("GET job %s: status %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	return job, err
}

// checker compares job results with a direct engine run of each spec
// (memoized: specs repeat across jobs and results are deterministic).
type checker struct {
	specs []sim.Spec
	want  map[int][]byte
}

func newChecker(specs []sim.Spec) *checker {
	return &checker{specs: specs, want: map[int][]byte{}}
}

// check returns nil when job j completed with the oracle's result.
func (c *checker) check(j *jobRecord) error {
	switch {
	case j.err != nil:
		return j.err
	case j.status != http.StatusAccepted:
		return fmt.Errorf("submit returned status %d", j.status)
	case j.state != jobq.StateDone:
		return fmt.Errorf("job %s ended %s", j.id, j.state)
	}
	want, ok := c.want[j.mix]
	if !ok {
		res, err := c.specs[j.mix].Run()
		if err != nil {
			return fmt.Errorf("oracle for mix %d: %w", j.mix, err)
		}
		if want, err = json.Marshal(res); err != nil {
			return err
		}
		c.want[j.mix] = want
	}
	var got bytes.Buffer
	if err := json.Compact(&got, j.result); err != nil {
		return fmt.Errorf("job %s result: %w", j.id, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("job %s (mix %d) result differs from the direct engine run", j.id, j.mix)
	}
	return nil
}

// burst submits every spec once, all due at once, and waits for all to
// finish.
func burst(ctx context.Context, v *svc, specs []sim.Spec) loadResult {
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	return openLoop(ctx, v.url, specs, idx, 0)
}

// serviceRun is one measured open loop plus its checks.
type serviceRun struct {
	out  outcome
	lr   loadResult
	runs map[string]float64 // job ID -> attempt span ms (traced runs)
}

// measureService sets the service up setupReps times (setup_s is the
// median), then drives the last instance with the open loop.
func measureService(ctx context.Context, o options, traced bool) (serviceRun, error) {
	n := int(arrivalRate*o.seconds + 0.5)
	if n < minJobs {
		return serviceRun{}, fmt.Errorf("--seconds %g sends %d jobs at %d/s; p90 needs at least %d", o.seconds, n, arrivalRate, minJobs)
	}
	specs := serviceSpecs(o.seed)
	ck := newChecker(specs)
	var (
		v     *svc
		spans *span.Trace
		rep   int
		warm  []jobRecord
	)
	if traced {
		spans = span.NewTrace()
	}
	setupS, err := timedSetup(func() error {
		if v != nil {
			if err := v.stop(); err != nil {
				return err
			}
		}
		rep++
		var err error
		v, err = startService(filepath.Join(o.work, fmt.Sprintf("svc-%d", rep)), spans)
		if err != nil {
			return err
		}
		// Warm-up jobs are checked after the timed phase, so the oracle's
		// runs stay out of setup_s.
		warm = append(warm, burst(ctx, v, specs).jobs...)
		return nil
	})
	if err != nil {
		if v != nil {
			_ = v.stop()
		}
		return serviceRun{}, fmt.Errorf("set-up: %w", err)
	}

	heap := startHeapSampler()
	lr := openLoop(ctx, v.url, specs, serviceSchedule(n), arrivalInterval)
	heapMB := heap.peakMB()
	if err := v.stop(); err != nil {
		return serviceRun{}, err
	}

	run := serviceRun{lr: lr}
	for i := range warm {
		run.out.attempted++
		if err := ck.check(&warm[i]); err != nil {
			logf("FAILED warm-up job %d: %v", i, err)
			run.out.failed++
		}
	}
	var adm, job []float64
	var records int64
	for i := range lr.jobs {
		j := &lr.jobs[i]
		run.out.attempted++
		if err := ck.check(j); err != nil {
			logf("FAILED job %d: %v", i, err)
			run.out.failed++
			continue
		}
		adm = append(adm, ms(j.admitted.Sub(j.due)))
		job = append(job, ms(j.done.Sub(j.due)))
		records += int64(serviceMix[j.mix].insts)
	}
	if len(job) == 0 {
		return serviceRun{}, errNoSamples
	}
	if traced {
		run.runs = attemptSpans(spans)
	}
	logf("%d jobs at %d/s, %d failed, %d retried", n, arrivalRate, run.out.failed, retried(lr))
	o2 := &run.out
	o2.set("setup_s", setupS, "s")
	// In an open loop this is the offered load (arrivalRate × mean job
	// records) while the service keeps up; it falls only when the
	// service saturates, and a faster service reads the same.
	o2.set("records_per_s", float64(records)/lr.end.Sub(lr.t0).Seconds(), "1/s")
	o2.set("heap_peak_mb", heapMB, "MiB")
	o2.set("success_ratio", float64(o2.attempted-o2.failed)/float64(o2.attempted), "ratio")
	o2.set("admit_p90_ms", quantile(adm, 0.9), "ms")
	o2.set("job_p90_ms", quantile(job, 0.9), "ms")
	return run, nil
}

// retried counts jobs that needed more than one attempt (they still
// count as correct if their final result matches).
func retried(lr loadResult) int {
	n := 0
	for _, j := range lr.jobs {
		if j.attempts > 1 {
			n++
		}
	}
	return n
}

// attemptSpans maps job ID to its attempt span durations in ms (summed
// over attempts). Worker spans are named "<job ID>/<tenant>".
func attemptSpans(tr *span.Trace) map[string]float64 {
	out := map[string]float64{}
	for _, ev := range tr.Events() {
		if ev.Kind != span.KindUnit || ev.Instant {
			continue
		}
		id, _, ok := strings.Cut(ev.Name, "/")
		if ok {
			out[id] += float64(ev.Dur) / float64(time.Millisecond)
		}
	}
	return out
}

func runService(ctx context.Context, o options) (outcome, error) {
	r, err := measureService(ctx, o, false)
	return r.out, err
}
