package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bulkpreload/internal/core"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// cancelAtSource cancels a context when record n is served — the
// deterministic way to interrupt a run at a known point. It forwards
// FillBatch, so a wrapped FileSource keeps its batch decode.
type cancelAtSource struct {
	src    trace.Source
	cancel context.CancelFunc
	at     int64
	served int64
}

func (c *cancelAtSource) Name() string { return c.src.Name() }
func (c *cancelAtSource) Reset()       { c.src.Reset(); c.served = 0 }
func (c *cancelAtSource) Next() (trace.Inst, bool) {
	c.served++
	if c.served == c.at {
		c.cancel()
	}
	return c.src.Next()
}
func (c *cancelAtSource) FillBatch(b *trace.Batch) int {
	n := int64(trace.FillBatch(c.src, b))
	if c.served < c.at && c.served+n >= c.at {
		c.cancel()
	}
	c.served += n
	return int(n)
}

// TestRunContextMatchesRun: an uncanceled RunContext must be the serial
// Run loop bit for bit.
func TestRunContextMatchesRun(t *testing.T) {
	prof := checkpointProfile()
	plain := Run(workload.New(prof), core.DefaultConfig(), fastParams(), "ctx")

	e := New(core.DefaultConfig(), fastParams())
	got, err := e.RunContext(context.Background(), workload.New(prof), "ctx", 0)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got.CPI() != plain.CPI() || got.Instructions != plain.Instructions ||
		got.Outcomes != plain.Outcomes || got.Cycles != plain.Cycles {
		t.Errorf("RunContext diverged from Run: CPI %.9f vs %.9f", got.CPI(), plain.CPI())
	}
}

// TestRunContextCancelCheckpointsAndResumes is the recovery core the
// zsimd service relies on: a canceled run checkpoints its exact
// stopping boundary, and resuming that checkpoint is bit-identical to a
// serial oracle that checkpoints at the same instruction count and
// resumes — the persistence machinery adds zero divergence. The file
// leg streams the trace through a FileSource's batch decoder: its
// cancel lands mid-batch (1000 is not a multiple of the 1024-record
// batch), so the resume's Next prefix skip leaves a partial batch that
// the run loop's FillBatch must drain before decoding the next one.
func TestRunContextCancelCheckpointsAndResumes(t *testing.T) {
	prof := checkpointProfile()
	path := filepath.Join(t.TempDir(), "ckpt.zbpt")
	if err := trace.WriteFile(path, workload.New(prof)); err != nil {
		t.Fatal(err)
	}
	uninterrupted := Run(workload.New(prof), core.DefaultConfig(), fastParams(), "res")

	for _, tc := range []struct {
		name   string
		source func(t *testing.T) trace.Source
	}{
		{"generator", func(*testing.T) trace.Source { return workload.New(prof) }},
		{"file", func(t *testing.T) trace.Source {
			fs, err := trace.OpenFileSource(path, trace.DefaultBatchCapacity)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = fs.Close() }) // read-only
			return fs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireResultsEqual(t, "uninterrupted", uninterrupted,
				New(core.DefaultConfig(), fastParams()).Run(tc.source(t), "res"))

			var cks []*Checkpoint
			params := fastParams()
			params.CheckpointSink = func(ck *Checkpoint) { cks = append(cks, ck) }
			e := New(core.DefaultConfig(), params)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &cancelAtSource{src: tc.source(t), cancel: cancel, at: 50_000}
			_, err := e.RunContext(ctx, src, "res", 1_000)
			if !errors.Is(err, ErrRunCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrRunCanceled wrapping context.Canceled", err)
			}
			if len(cks) != 1 {
				t.Fatalf("sink received %d checkpoints on cancel, want 1", len(cks))
			}
			ck := cks[0]
			if ck.Instructions < 50_000 || ck.Instructions >= int64(prof.Instructions) {
				t.Fatalf("cancel checkpoint at %d instructions", ck.Instructions)
			}
			if ck.Instructions%trace.DefaultBatchCapacity == 0 {
				t.Fatalf("cancel checkpoint at %d lies on a batch boundary; the test needs it mid-batch", ck.Instructions)
			}

			// Resume the canceled run's checkpoint.
			resumed, err := New(core.DefaultConfig(), fastParams()).Resume(context.Background(), tc.source(t), ck)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}

			// Serial oracle: fresh run checkpointing at exactly
			// ck.Instructions, then Resume. Both the checkpoint and the
			// final result must match the canceled-and-resumed path bit
			// for bit. (Neither equals the uninterrupted run: transient
			// state restarts cold at a resume, see docs/ROBUSTNESS.md.)
			var ocks []*Checkpoint
			op := fastParams()
			op.CheckpointInterval = ck.Instructions
			op.CheckpointSink = func(c *Checkpoint) { ocks = append(ocks, c) }
			Run(workload.New(prof), core.DefaultConfig(), op, "res")
			if len(ocks) == 0 {
				t.Fatal("oracle took no checkpoint")
			}
			if !reflect.DeepEqual(ck, ocks[0]) {
				t.Error("cancel checkpoint differs from the oracle's interval checkpoint at the same boundary")
			}
			oracle, err := New(core.DefaultConfig(), fastParams()).Resume(context.Background(), workload.New(prof), ocks[0])
			if err != nil {
				t.Fatalf("oracle Resume: %v", err)
			}
			requireResultsEqual(t, "resumed", oracle, resumed)
		})
	}
}

// TestRunBatchedDegenerateBatches covers sources shorter than one batch
// and empty sources: the run loop must step exactly the records a
// partial batch holds, matching the records stepped one by one.
func TestRunBatchedDegenerateBatches(t *testing.T) {
	params := fastParams()

	empty := trace.NewSliceSource("empty", nil)
	res := New(core.DefaultConfig(), params).Run(empty, "btb2")
	if res.Instructions != 0 {
		t.Fatalf("empty source simulated %d instructions", res.Instructions)
	}

	tiny := trace.Collect(workload.New(checkpointProfile()))[:3]
	e := New(core.DefaultConfig(), params)
	e.res.Trace, e.res.Config = "tiny", "btb2"
	for _, in := range tiny {
		e.step(in)
	}
	e.finishResult()
	got := New(core.DefaultConfig(), params).Run(trace.NewSliceSource("tiny", tiny), "btb2")
	requireResultsEqual(t, "tiny", e.res, got)
}

// requireResultsEqual fails the test with a field-level report unless
// the two results are bit-identical, including the final metric
// snapshot and every interval snapshot.
func requireResultsEqual(t *testing.T, label string, want, got Result) {
	t.Helper()
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Errorf("%s: result fields differ\n  want: %s\n  got:  %s", label, wj, gj)
	}
	if (want.Metrics == nil) != (got.Metrics == nil) {
		t.Fatalf("%s: metrics present in one result only", label)
	}
	if want.Metrics != nil {
		for _, d := range obs.Diff(*want.Metrics, *got.Metrics) {
			t.Errorf("%s: metrics: %s", label, d)
		}
	}
	if len(want.Snapshots) != len(got.Snapshots) {
		t.Fatalf("%s: snapshot count %d != %d", label, len(want.Snapshots), len(got.Snapshots))
	}
	for k := range want.Snapshots {
		for _, d := range obs.Diff(want.Snapshots[k], got.Snapshots[k]) {
			t.Errorf("%s: interval snapshot %d: %s", label, k, d)
		}
	}
}

// TestWriteCheckpointFileDurableRoundTrip: the atomic writer must
// produce a file that round-trips, must overwrite an existing
// checkpoint in place, and must leave no temp debris behind — the
// durability contract the jobq journal and crash recovery sit on.
func TestWriteCheckpointFileDurableRoundTrip(t *testing.T) {
	prof := checkpointProfile()
	var cks []*Checkpoint
	params := fastParams()
	params.CheckpointInterval = 40_000
	params.CheckpointSink = func(c *Checkpoint) { cks = append(cks, c) }
	Run(workload.New(prof), core.DefaultConfig(), params, "dur")
	if len(cks) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(cks))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	for i, ck := range cks[:2] { // second write overwrites the first
		if err := WriteCheckpointFile(path, ck); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := ReadCheckpointFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		// Byte-stable round trip: re-persisting what was read must
		// reproduce the on-disk encoding exactly (gob collapses nil and
		// empty slices, so struct-level DeepEqual is too strict — what
		// recovery depends on is that the persisted form is a fixed
		// point).
		var a, b bytes.Buffer
		if err := ck.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("checkpoint %d not byte-stable across the file round trip", i)
		}
		if got.Instructions != ck.Instructions || got.Trace != ck.Trace {
			t.Errorf("checkpoint %d identity changed: %d/%q", i, got.Instructions, got.Trace)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}
