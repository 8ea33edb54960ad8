package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/sim"
)

// expected.json holds the serial oracle's result for every unit of the
// sweep and replay workloads at the recorded seeds (0-15, plus the
// held-out seed). Regenerate it only when simulated behaviour is meant
// to change:
//
//	bash zbench/run.sh --record-expected > zbench/expected.json
//
// A seed that is not recorded is checked against the serial oracle,
// run before set-up starts.
//
//go:embed expected.json
var expectedJSON []byte

// unitExpect is the oracle's result for one unit: a few readable
// statistics plus a digest of every simulated statistic.
type unitExpect struct {
	Label         string  `json:"label"`
	Instructions  int64   `json:"instructions"`
	Cycles        float64 `json:"cycles"`
	Outcomes      []int64 `json:"outcomes"`
	TransferReads int64   `json:"transfer_reads"`
	Digest        string  `json:"digest"`
}

func expectOf(label string, r engine.Result) unitExpect {
	return unitExpect{
		Label:         label,
		Instructions:  r.Instructions,
		Cycles:        r.Cycles,
		Outcomes:      r.Outcomes.N[:],
		TransferReads: r.Hier.TransferReads,
		Digest:        digest(r),
	}
}

// expectedFile maps workload name -> seed -> per-unit oracle results.
type expectedFile map[string]map[string][]unitExpect

// recordedSeeds are the seeds expected.json covers.
func recordedSeeds() []int64 {
	seeds := make([]int64, 0, 17)
	for s := int64(0); s < 16; s++ {
		seeds = append(seeds, s)
	}
	return append(seeds, HeldOutSeed)
}

// oracle runs units through sim.RunUnitsSerial, the record-at-a-time
// reference path.
func oracle(units []sim.Unit) ([]unitExpect, error) {
	res, err := sim.RunUnitsSerial(units)
	if err != nil {
		return nil, err
	}
	out := make([]unitExpect, len(res))
	for i := range res {
		out[i] = expectOf(units[i].Label, res[i])
	}
	return out, nil
}

// expectedFor returns the stored oracle results for (workload, seed), or
// runs the oracle on units when the seed is not recorded.
func expectedFor(workload string, seed int64, units func() []sim.Unit) ([]unitExpect, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if want, ok := f[workload][strconv.FormatInt(seed, 10)]; ok {
		return want, nil
	}
	logf("seed %d not in expected.json: running the serial oracle", seed)
	return oracle(units())
}

// recordExpected regenerates expected.json from the serial oracle.
func recordExpected(w io.Writer) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	f := expectedFile{"sweep": {}, "replay": {}}
	for _, seed := range recordedSeeds() {
		key := strconv.FormatInt(seed, 10)
		sw, err := oracle(sweepUnits(seed))
		if err != nil {
			return fmt.Errorf("sweep seed %d: %w", seed, err)
		}
		f["sweep"][key] = sw
		r := newReplay(options{seed: seed, work: work})
		if err := r.record(); err != nil {
			return err
		}
		rp, err := oracle(r.units()[:1])
		r.close()
		if err != nil {
			return fmt.Errorf("replay seed %d: %w", seed, err)
		}
		f["replay"][key] = rp
		logf("recorded seed %d", seed)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
