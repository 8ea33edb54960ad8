package main

import (
	"context"
	"fmt"

	"bulkpreload/internal/core"
	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
	"bulkpreload/internal/workload"
)

// The sweep workload: the Figure 5-style BTB2 capacity sweep, two Table
// 4 profiles each at the one-level base configuration plus five BTB2
// row counts — twelve short units per pass. Every unit rebuilds its
// profile's program, so program build and the scheduler weigh heavily
// here.
const (
	sweepInsts  = 150_000
	sweepWarmup = 50_000
)

// sweepProfiles: a small footprint (tpf-airline) and the paper's
// maximum-benefit trace (zos-daytrader-dbserv).
var (
	sweepProfiles = []string{"tpf-airline", "zos-daytrader-dbserv"}
	sweepRows     = []int{512, 1024, 2048, 4096, 8192}
)

func sweepParams() engine.Params {
	p := engine.DefaultParams()
	p.WarmupInstructions = sweepWarmup
	return p
}

// sweepConfigs returns the six configurations each profile runs under.
func sweepConfigs() (names []string, cfgs []core.Config) {
	names = append(names, "base")
	cfgs = append(cfgs, core.OneLevelConfig())
	for _, rows := range sweepRows {
		cfg := core.DefaultConfig()
		cfg.BTB2 = sim.BTB2Geometry(rows)
		names = append(names, fmt.Sprintf("btb2-%drows", rows))
		cfgs = append(cfgs, cfg)
	}
	return names, cfgs
}

func sweepProfileSet(seed int64) []workload.Profile {
	ps := make([]workload.Profile, len(sweepProfiles))
	for i, name := range sweepProfiles {
		ps[i] = seededProfile(name, sweepInsts, seed)
	}
	return ps
}

// sweepUnits builds the twelve units of one sweep pass.
func sweepUnits(seed int64) []sim.Unit {
	names, cfgs := sweepConfigs()
	params := sweepParams()
	var units []sim.Unit
	for _, p := range sweepProfileSet(seed) {
		for i := range cfgs {
			units = append(units, sim.ProfileUnit(p, cfgs[i], params, names[i]))
		}
	}
	return units
}

// sweepSpecs are the sweep's units as zsimd job specs.
func sweepSpecs(seed int64) []sim.Spec {
	_, cfgs := sweepConfigs()
	params := sweepParams()
	var specs []sim.Spec
	for _, p := range sweepProfileSet(seed) {
		for i := range cfgs {
			p, cfg := p, cfgs[i]
			specs = append(specs, sim.Spec{Profile: &p, Custom: &cfg, Params: &params})
		}
	}
	return specs
}

// sweepBatch: set-up is one warm-up pass (heap growth, page faults),
// checked like the timed ones; each timed pass builds its twelve units
// afresh and runs them.
func sweepBatch(ctx context.Context, o options) (batchSpec, error) {
	want, err := expectedFor("sweep", o.seed, func() []sim.Unit { return sweepUnits(o.seed) })
	if err != nil {
		return batchSpec{}, err
	}
	build := func() []sim.Unit { return sweepUnits(o.seed) }
	return batchSpec{
		setup: func() (*passResult, error) {
			p := runPass(ctx, build, nil)
			return &p, nil
		},
		build:   build,
		records: int64(len(want)) * sweepInsts,
		expect:  want,
	}, nil
}

func runSweep(ctx context.Context, o options) (outcome, error) {
	b, err := sweepBatch(ctx, o)
	if err != nil {
		return outcome{}, err
	}
	return measureBatch(ctx, o, b)
}

func layersSweep(ctx context.Context, o options) (outcome, error) {
	b, err := sweepBatch(ctx, o)
	if err != nil {
		return outcome{}, err
	}
	return measureLayers(ctx, o, b, layerInputs{
		profiles: sweepProfileSet(o.seed),
		units:    func() []sim.Unit { return sweepUnits(o.seed) },
		specs:    sweepSpecs(o.seed),
	})
}
