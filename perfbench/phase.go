package main

// Everything that depends on the phase layer lives in this file, so the
// benchmark can be pointed at a commit that predates it by replacing
// this one file.

import (
	"fmt"
	"io"

	"metascope/internal/phase"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// writePhases serializes the phase artifact.
func writePhases(res *replay.Result, w io.Writer) error { return res.Phases.WriteJSON(w) }

// resultPhases returns the phase count and period the analysis found.
func resultPhases(res *replay.Result) (phases, period int) {
	return len(res.Phases.Phases), res.Phases.Period
}

// detectProbe rebuilds every rank's op log from the traces in
// corrected time and calls phase.Detect on it directly. The rebuild
// mirrors the replay sweep: one op per completed region instance
// that is not a user region, keyed by the region name's signature.
// The sweep's event time is the corrected time plus a repair shift
// that grows only when replay.Config.Repair is set; the benchmark
// never sets it, so the shift stays 0 and the rebuilt times are the
// ones the analysis hands phase.Detect.
func detectProbe(tr *tracer, aid int, traces []*trace.Trace, corrs []vclock.Correction) (phases, period int, err error) {
	sp := tr.begin(aid, 0, "phase.rebuild_ops", false)
	ops, err := rebuildOps(traces, corrs)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin(aid, 0, "phase.detect", true)
	seg := phase.Detect(ops)
	tr.end(sp)
	return seg.Phases(), seg.Period, nil
}

func rebuildOps(traces []*trace.Trace, corrs []vclock.Correction) ([][]phase.Op, error) {
	maps := make([]vclock.LinearMap, len(traces))
	for _, c := range corrs {
		if c.Rank < 0 || c.Rank >= len(maps) {
			return nil, fmt.Errorf("correction for rank %d outside %d ranks", c.Rank, len(maps))
		}
		maps[c.Rank] = c.Map
	}
	ops := make([][]phase.Op, len(traces))
	for r, t := range traces {
		regions := make(map[trace.RegionID]*trace.Region, len(t.Regions))
		for i := range t.Regions {
			regions[t.Regions[i].ID] = &t.Regions[i]
		}
		type open struct {
			reg   *trace.Region
			enter float64
		}
		var stack []open
		for i := range t.Events {
			ev := &t.Events[i]
			switch ev.Kind {
			case trace.KindEnter:
				stack = append(stack, open{regions[ev.Region], maps[r].Apply(ev.Time)})
			case trace.KindExit:
				if len(stack) == 0 {
					return nil, fmt.Errorf("rank %d: exit without enter at event %d", r, i)
				}
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top.reg.Kind != trace.RegionUser {
					ops[r] = append(ops[r], phase.Op{Enter: top.enter, Exit: maps[r].Apply(ev.Time), Sig: phase.SigOf(top.reg.Name)})
				}
			}
		}
	}
	return ops, nil
}
