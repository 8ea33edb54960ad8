package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"

	"bulkpreload/internal/engine"
)

// The storage-layout differential gate. The predictor tables ship a
// structure-of-arrays bit-packed layout (a few uint64 words per row)
// with the original array-of-structs layout retained as a serial
// oracle behind Config.StructLayout. Packing is only allowed to change
// how bits are stored, never which bits exist: this gate runs the same
// units through both layouts — the packed default on the work-stealing
// parallel pipeline, the struct oracle on the single-threaded serial
// path — and demands bit-identical results, then proves the ZBPC
// checkpoint format is layout-independent by round-tripping a mid-run
// checkpoint through its gob encoding and resuming each layout from
// the checkpoint the *other* layout wrote.

// StructLayoutUnits returns a copy of units with every hierarchy forced
// onto the retained array-of-structs oracle layout.
func StructLayoutUnits(units []Unit) []Unit {
	out := make([]Unit, len(units))
	for i, u := range units {
		u.Config.StructLayout = true
		out[i] = u
	}
	return out
}

// VerifyLayoutDifferential runs units through the packed layout on the
// parallel pipeline and the struct-oracle layout on the serial path,
// then runs the checkpoint leg for each unit: capture a ZBPC checkpoint
// mid-run under both layouts, round-trip each through the gob wire
// format, demand the decoded checkpoints identical, and resume each
// layout from the other layout's checkpoint. ckptEvery is the
// checkpoint interval in instructions and must land inside the run.
// Returns one human-readable line per mismatch; an empty slice proves
// the packed layout is observationally identical to the struct layout,
// mid-run state included.
func VerifyLayoutDifferential(ctx context.Context, workers int, units []Unit, ckptEvery int64) ([]string, error) {
	structRes, serr := RunUnitsSerial(StructLayoutUnits(units))
	packedRes, perr := RunUnits(ctx, workers, units)
	var mismatches []string
	for i := range units {
		mismatches = append(mismatches, DiffResults(units[i].Label+"/layout", structRes[i], packedRes[i])...)
	}
	var errs []error
	if serr != nil {
		errs = append(errs, serr)
	}
	if perr != nil {
		errs = append(errs, perr)
	}
	for i := range units {
		ms, err := checkpointLeg(&units[i], ckptEvery)
		mismatches = append(mismatches, ms...)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return mismatches, errors.Join(errs...)
}

// checkpointLeg proves ZBPC layout independence for one unit: both
// layouts run to completion capturing a checkpoint at ckptEvery
// instructions, each checkpoint round-trips through Checkpoint.Write /
// ReadCheckpoint, the decoded checkpoints must be deeply equal, and
// each layout must resume from the opposite layout's checkpoint to a
// result bit-identical with the other resumed run.
func checkpointLeg(u *Unit, ckptEvery int64) (out []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: layout checkpoint leg (%s) panicked: %v", u.Label, r)
		}
	}()
	run := func(structLayout bool) (engine.Result, *engine.Checkpoint, error) {
		cfg := u.Config
		cfg.StructLayout = structLayout
		params := u.Params
		params.CheckpointInterval = ckptEvery
		var last *engine.Checkpoint
		params.CheckpointSink = func(ck *engine.Checkpoint) { last = ck }
		res := engine.Run(u.NewSource(), cfg, params, u.ConfigName)
		if last == nil {
			return res, nil, fmt.Errorf("sim: layout gate (%s): no checkpoint captured (interval %d, run was %d instructions)",
				u.Label, ckptEvery, res.Instructions)
		}
		// Round-trip through the ZBPC wire format — the gate must hold
		// for checkpoints as persisted, not just as in-memory structs.
		var buf bytes.Buffer
		if werr := last.Write(&buf); werr != nil {
			return res, nil, fmt.Errorf("sim: layout gate (%s): %w", u.Label, werr)
		}
		ck, rerr := engine.ReadCheckpoint(&buf)
		if rerr != nil {
			return res, nil, fmt.Errorf("sim: layout gate (%s): %w", u.Label, rerr)
		}
		return res, ck, nil
	}
	packedFull, packedCk, err := run(false)
	if err != nil {
		return nil, err
	}
	structFull, structCk, err := run(true)
	if err != nil {
		return nil, err
	}
	out = append(out, DiffResults(u.Label+"/ckpt-full", structFull, packedFull)...)
	if !reflect.DeepEqual(packedCk, structCk) {
		out = append(out, fmt.Sprintf("%s: ZBPC checkpoint at instruction %d differs between layouts",
			u.Label, packedCk.Instructions))
	}
	// Cross-layout resume: the packed hierarchy restores the checkpoint
	// the struct layout wrote, and vice versa.
	resume := func(structLayout bool, ck *engine.Checkpoint) (engine.Result, error) {
		cfg := u.Config
		cfg.StructLayout = structLayout
		return engine.New(cfg, u.Params).Resume(context.Background(), u.NewSource(), ck)
	}
	packedRes, err := resume(false, structCk)
	if err != nil {
		return out, fmt.Errorf("sim: layout gate (%s): packed resume from struct checkpoint: %w", u.Label, err)
	}
	structRes, err := resume(true, packedCk)
	if err != nil {
		return out, fmt.Errorf("sim: layout gate (%s): struct resume from packed checkpoint: %w", u.Label, err)
	}
	out = append(out, DiffResults(u.Label+"/ckpt-resume", structRes, packedRes)...)
	return out, nil
}
