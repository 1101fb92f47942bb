package conformance

import (
	"math"
	"os"
	"strconv"
	"testing"

	"metascope"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/vclock"
)

// oracleScenarios returns the full conformance matrix: every shipped
// base pattern in both its intra-metahost and grid variant.
func oracleScenarios() []Scenario {
	base := []Scenario{
		{Name: "late-sender", Base: pattern.LateSender,
			Delays: []float64{0.137, 0}, Align: 1.0, Bytes: 2048},
		{Name: "late-receiver", Base: pattern.LateReceiver,
			Delays: []float64{0, 0.211}, Align: 1.0, Bytes: 192 << 10},
		{Name: "wait-barrier", Base: pattern.WaitBarrier,
			Delays: []float64{0.05, 0.17, 0.08, 0.26}, Align: 1.0},
		{Name: "wait-nxn", Base: pattern.WaitNxN,
			Delays: []float64{0.09, 0.31, 0.14, 0.22}, Align: 1.0},
		{Name: "early-reduce", Base: pattern.EarlyReduce,
			Delays: []float64{0, 0.12, 0.27, 0.19}, Align: 1.0},
		{Name: "late-broadcast", Base: pattern.LateBroadcast,
			Delays: []float64{0.23, 0, 0, 0}, Align: 1.0},
	}
	out := make([]Scenario, 0, 2*len(base))
	for _, s := range base {
		intra := s
		intra.Name += "-intra"
		out = append(out, intra)
		grid := s
		grid.Name += "-grid"
		grid.Grid = true
		out = append(out, grid)
	}
	return out
}

// oracleSeeds returns the seeds to sweep. The default single seed keeps
// the suite fast inside `make check`; `make conformance` widens the
// sweep through METASCOPE_CONFORMANCE_SEEDS.
func oracleSeeds(t *testing.T) []int64 {
	t.Helper()
	n := 1
	if v := os.Getenv("METASCOPE_CONFORMANCE_SEEDS"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			t.Fatalf("METASCOPE_CONFORMANCE_SEEDS=%q: want a positive integer", v)
		}
		n = p
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// archiveFormats names the two archive encodings the oracles sweep:
// "v2", the archive as measured, and "v1", the checked-in v1 archive of
// the same run (UseV1Archive), which exists for seed 1.
var archiveFormats = []string{"v1", "v2"}

// formatSeeds returns the oracle seeds a format subtest of name runs:
// all of them for v2, and for v1 only those with a checked-in archive,
// so no v1 subtest measures a run it cannot swap.
func formatSeeds(t *testing.T, name string, v1 bool) []int64 {
	t.Helper()
	if !v1 {
		return oracleSeeds(t)
	}
	var seeds []int64
	for _, seed := range oracleSeeds(t) {
		_, ok, err := V1Archive(name, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok {
			seeds = append(seeds, seed)
		} else {
			t.Logf("seed %d: no checked-in v1 archive; the v2 subtest covers it", seed)
		}
	}
	return seeds
}

// reanalyzeV1 swaps e's archive for the checked-in v1 archive of
// (name, seed) and redoes every analysis in results from it.
func reanalyzeV1(t *testing.T, e *metascope.Experiment, name string, seed int64, results map[vclock.Scheme]*replay.Result) {
	t.Helper()
	ok, err := UseV1Archive(e, name, seed)
	if err != nil || !ok {
		t.Fatalf("seed %d: no usable v1 archive: ok=%v err=%v", seed, ok, err)
	}
	for sch := range results {
		res, err := e.Analyze(sch)
		if err != nil {
			t.Fatalf("seed %d %v: analyzing the v1 archive: %v", seed, sch, err)
		}
		results[sch] = res
	}
}

// TestOracle is the tentpole assertion: for every pattern variant and
// both trace encodings the full pipeline — simulated run, archive,
// synchronization, replay, pattern search, cube — recovers the planted
// closed-form severities. The interpolation schemes must be exact on
// the deterministic testbed; FlatSingle must stay within its
// analytically derived drift bound.
func TestOracle(t *testing.T) {
	for _, s := range oracleScenarios() {
		for _, f := range archiveFormats {
			s, v1 := s, f == "v1"
			t.Run(s.Name+"/"+f, func(t *testing.T) {
				t.Parallel()
				testOracleScenario(t, s, v1)
			})
		}
	}
}

func testOracleScenario(t *testing.T, s Scenario, v1 bool) {
	for _, seed := range formatSeeds(t, s.Name, v1) {
		rr, err := RunScenario(s, seed,
			vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v1 {
			reanalyzeV1(t, rr.Exp, s.Name, seed, rr.Results)
		}
		for _, sch := range []vclock.Scheme{vclock.FlatInterp, vclock.Hierarchical} {
			res := rr.Results[sch]
			for _, mm := range CheckOracle(res.Report, s, rr.Scale, ExactTol) {
				t.Errorf("seed %d %v: %v", seed, sch, mm)
			}
			if res.Violations != 0 {
				t.Errorf("seed %d %v: %d clock-condition violations on the exact testbed",
					seed, sch, res.Violations)
			}
			// The time-resolved profile is built from the same
			// pattern instances; its total mass under the planted
			// key must match the planted total regardless of which
			// rank each instance is attributed to.
			wantTotal := 0.0
			for _, w := range s.Expected() {
				wantTotal += w * rr.Scale
			}
			got := res.Profile.SeriesTotal(s.PlantedKey(), -1)
			if math.Abs(got-wantTotal) > ExactTol.For(wantTotal) {
				t.Errorf("seed %d %v: profile mass under %s = %.9g, want %.9g",
					seed, sch, s.PlantedKey(), got, wantTotal)
			}
		}
		res := rr.Results[vclock.FlatSingle]
		tol := FlatSingleTol(rr.Exp, s.Horizon())
		for _, mm := range CheckOracle(res.Report, s, rr.Scale, tol) {
			t.Errorf("seed %d %v: %v", seed, vclock.FlatSingle, mm)
		}
	}
}

// TestMutationSensitivity proves the oracle can fail: checking a run
// against a deliberately perturbed ground truth must produce
// mismatches. A harness that accepts a 15% severity error would accept
// a broken analyzer.
func TestMutationSensitivity(t *testing.T) {
	t.Parallel()
	for _, s := range []Scenario{
		{Name: "mutate-ls", Base: pattern.LateSender, Grid: true,
			Delays: []float64{0.137, 0}, Align: 1.0, Bytes: 2048},
		{Name: "mutate-barrier", Base: pattern.WaitBarrier,
			Delays: []float64{0.05, 0.17, 0.08, 0.26}, Align: 1.0},
	} {
		rr, err := RunScenario(s, 1, vclock.Hierarchical)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		rep := rr.Results[vclock.Hierarchical].Report
		if mm := CheckOracle(rep, s, rr.Scale, ExactTol); len(mm) != 0 {
			t.Fatalf("%s: unperturbed oracle already fails: %v", s.Name, mm)
		}
		mutated := s
		mutated.Delays = append([]float64(nil), s.Delays...)
		mutated.Delays[0] *= 1.15
		if mm := CheckOracle(rep, mutated, rr.Scale, ExactTol); len(mm) == 0 {
			t.Errorf("%s: oracle accepted a run whose planted delay was perturbed by 15%%", s.Name)
		}
	}
}

// TestExpectedClosedForms pins the closed forms themselves so a
// refactor of Expected cannot silently drift from the documented model.
func TestExpectedClosedForms(t *testing.T) {
	t.Parallel()
	cases := []struct {
		s    Scenario
		want map[int]float64
	}{
		{Scenario{Base: pattern.LateSender, Delays: []float64{0.2, 0}},
			map[int]float64{0: 0, 1: 0.2}},
		{Scenario{Base: pattern.LateReceiver, Delays: []float64{0, 0.3}},
			map[int]float64{0: 0.3, 1: 0}},
		{Scenario{Base: pattern.WaitBarrier, Delays: []float64{0.1, 0.4, 0.2}},
			map[int]float64{0: 0.3, 1: 0, 2: 0.2}},
		{Scenario{Base: pattern.WaitNxN, Delays: []float64{0.5, 0.1}},
			map[int]float64{0: 0, 1: 0.4}},
		{Scenario{Base: pattern.EarlyReduce, Delays: []float64{0, 0.2, 0.35}},
			map[int]float64{0: 0.2, 1: 0, 2: 0}},
		{Scenario{Base: pattern.LateBroadcast, Delays: []float64{0.25, 0, 0}},
			map[int]float64{0: 0, 1: 0.25, 2: 0.25}},
	}
	for _, c := range cases {
		got := c.s.Expected()
		if len(got) != len(c.want) {
			t.Errorf("%v: Expected() covers %d ranks, want %d", c.s.Base, len(got), len(c.want))
		}
		for r, w := range c.want {
			if math.Abs(got[r]-w) > 1e-15 {
				t.Errorf("%v rank %d: Expected() = %g, want %g", c.s.Base, r, got[r], w)
			}
		}
	}
}
