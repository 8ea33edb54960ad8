package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
)

// The replay workload: one long ZBPT trace of zos-trade6, recorded
// during set-up, streamed through trace.OpenFileSource into
// Engine.RunBatched under the btb2 configuration. Its ~115k unique
// branches far exceed the 24k-entry BTB2, so bulk transfers stay
// active; program build is paid only in setup_s, and ZBPT decode
// replaces record generation. Each pass replays the trace once per
// simulation worker.
const (
	replayProfile = "zos-trade6"
	replayInsts   = 2_000_000
)

type replay struct {
	seed int64
	path string

	mu     sync.Mutex
	opened []*trace.FileSource
}

func newReplay(o options) *replay {
	return &replay{seed: o.seed, path: filepath.Join(o.work, "replay.zbpt")}
}

func (r *replay) profile() workload.Profile {
	return seededProfile(replayProfile, replayInsts, r.seed)
}

// record generates the trace and writes it as a ZBPT file, synced so
// its write-back does not spill into the timed phase.
func (r *replay) record() error {
	if err := trace.WriteFile(r.path, workload.New(r.profile())); err != nil {
		return err
	}
	f, err := os.Open(r.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// units returns one unit per simulation worker, each streaming the
// trace file through its own FileSource.
func (r *replay) units() []sim.Unit {
	units := make([]sim.Unit, simWorkers)
	for i := range units {
		units[i] = sim.Unit{
			Label:      replayProfile + "/" + sim.ConfigBTB2,
			NewSource:  r.open,
			Config:     core.DefaultConfig(),
			Params:     engine.DefaultParams(),
			ConfigName: sim.ConfigBTB2,
		}
	}
	return units
}

// open is a unit's source constructor. The file was written during
// set-up, so failing to open it is a bug; RunUnits reports the panic as
// the unit's error.
func (r *replay) open() trace.Source {
	fs, err := trace.OpenFileSource(r.path, 0)
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	r.opened = append(r.opened, fs)
	r.mu.Unlock()
	return fs
}

// close releases every FileSource opened so far.
func (r *replay) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fs := range r.opened {
		_ = fs.Close() // read-only files
	}
	r.opened = nil
}

// replayBatch: set-up records the trace; each pass replays it.
func replayBatch(o options) (*replay, batchSpec, error) {
	r := newReplay(o)
	if err := r.record(); err != nil {
		return nil, batchSpec{}, err
	}
	// Every replica replays the same trace, so the oracle runs once.
	want, err := expectedFor("replay", o.seed, func() []sim.Unit { return r.units()[:1] })
	r.close()
	if err != nil {
		return nil, batchSpec{}, err
	}
	if len(want) != 1 {
		return nil, batchSpec{}, fmt.Errorf("expected.json: replay seed %d has %d units, want 1", o.seed, len(want))
	}
	for len(want) < simWorkers {
		want = append(want, want[0])
	}
	build := func() []sim.Unit {
		r.close()
		return r.units()
	}
	setup := func() (*passResult, error) { return nil, r.record() }
	return r, batchSpec{setup: setup, build: build, records: simWorkers * replayInsts, expect: want}, nil
}

func runReplay(ctx context.Context, o options) (outcome, error) {
	r, b, err := replayBatch(o)
	if err != nil {
		return outcome{}, err
	}
	defer r.close()
	return measureBatch(ctx, o, b)
}

func layersReplay(ctx context.Context, o options) (outcome, error) {
	r, b, err := replayBatch(o)
	if err != nil {
		return outcome{}, err
	}
	defer r.close()
	p := r.profile()
	return measureLayers(ctx, o, b, layerInputs{
		profiles: []workload.Profile{p},
		units: func() []sim.Unit {
			return []sim.Unit{sim.ProfileUnit(p, core.DefaultConfig(), engine.DefaultParams(), sim.ConfigBTB2)}
		},
		specs:  []sim.Spec{{TraceFile: r.path, Config: sim.ConfigBTB2}},
		traces: []string{r.path},
	})
}
