package conformance

import (
	"fmt"
	"math"
	"sort"

	"metascope"
	"metascope/internal/cube"
	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/vclock"
)

// CheckKeys is the generalized oracle assertion: for every rank and
// every wait-state metric key, the report's subtree-inclusive total
// must match keys[key][rank]·scale within tol — keys absent from the
// expectation must analyze to exactly zero. Metrics listed in bounds
// have no closed form (collective completion skew) and are instead
// required to stay within [0, bound].
//
// CheckOracle is this check specialized to the single-pattern planted
// scenarios; generated kernel workloads (internal/scenario) carry
// multi-key expectations and use CheckKeys directly.
func CheckKeys(rep *cube.Report, n int, keys map[string]map[int]float64, bounds map[string]float64, scale float64, tol Tolerance) []Mismatch {
	var out []Mismatch
	for r := 0; r < n; r++ {
		for _, key := range pattern.WaitStateKeys() {
			got := rep.RankMetricTotal(key, r)
			if bound, ok := bounds[key]; ok {
				if got < 0 || got > bound {
					out = append(out, Mismatch{Rank: r, Key: key, Got: got, Want: 0, Tol: bound})
				}
				continue
			}
			want := keys[key][r] * scale
			if math.Abs(got-want) > tol.For(want) {
				out = append(out, Mismatch{Rank: r, Key: key, Got: got, Want: want, Tol: tol.For(want)})
			}
		}
	}
	return out
}

// CheckKernel compares a report against a compiled scenario program's
// closed-form expectation.
func CheckKernel(rep *cube.Report, p *scenario.Program, scale float64, tol Tolerance) []Mismatch {
	return CheckKeys(rep, p.N(), p.Expect.Keys, p.Expect.Bounds, scale, tol)
}

// PhaseMismatch is one failed per-phase oracle cell: the detected
// phase profile disagreed with a kernel's per-step closed form.
type PhaseMismatch struct {
	Phase    int
	Family   string
	Metahost int
	Got      float64
	Want     float64
	Tol      float64
}

func (m PhaseMismatch) String() string {
	return fmt.Sprintf("phase %d %s metahost %d: got %.9g, want %.9g (tol %.3g)",
		m.Phase, m.Family, m.Metahost, m.Got, m.Want, m.Tol)
}

// completionFamilies lists the wait-state families with no closed form
// (collective completion is dissemination skew, not planted imbalance);
// per phase they are bounded by the scenario's per-step bound instead.
var completionFamilies = map[string]bool{
	pattern.KeyBarrierComp: true,
	pattern.KeyNxNComp:     true,
}

// CheckPhases is the per-iteration oracle: for every detected phase,
// every wait-state family, and every metahost, the phase profile's
// severity must equal the kernel's per-step expectation summed over
// the metahost's ranks (scaled to corrected seconds) within tol.
// Completion families are bounded per step instead, and families the
// step plants nothing in must come out exactly zero. The caller
// asserts separately that the detected phase count equals the
// schedule's step count — this check walks the pairing positionally.
func CheckPhases(pp *phase.Profile, p *scenario.Program, scale float64, tol Tolerance) []PhaseMismatch {
	mhRanks := make(map[int][]int)
	for r := 0; r < p.N(); r++ {
		mhRanks[p.RankMetahost(r)] = append(mhRanks[p.RankMetahost(r)], r)
	}
	mhs := make([]int, 0, len(mhRanks))
	for mh := range mhRanks {
		mhs = append(mhs, mh)
	}
	sort.Ints(mhs)

	var out []PhaseMismatch
	steps := p.Expect.Steps
	for i := 0; i < len(pp.Phases) && i < len(steps); i++ {
		for _, key := range pattern.WaitStateKeys() {
			if phase.FamilyOf(key) != key {
				continue // grid/wrong-order children fold into their family
			}
			for _, mh := range mhs {
				got := pp.SeverityAt(i, key, mh)
				if completionFamilies[key] {
					bound := p.Expect.StepBounds[key] * scale * float64(len(mhRanks[mh]))
					if got < 0 || got > bound {
						out = append(out, PhaseMismatch{Phase: i, Family: key, Metahost: mh, Got: got, Tol: bound})
					}
					continue
				}
				want := 0.0
				if steps[i] != nil {
					for _, r := range mhRanks[mh] {
						want += steps[i][key][r]
					}
				}
				want *= scale
				if math.Abs(got-want) > tol.For(want) {
					out = append(out, PhaseMismatch{Phase: i, Family: key, Metahost: mh, Got: got, Want: want, Tol: tol.For(want)})
				}
			}
		}
	}
	return out
}

// KernelRun bundles one executed generated-workload scenario with its
// analyses, the kernel analogue of RunResult.
type KernelRun struct {
	Program *scenario.Program
	Exp     *metascope.Experiment
	Scale   float64
	Results map[vclock.Scheme]*replay.Result
}

// RunKernel loads a library scenario, runs it through the normal
// pipeline (including post-measurement fault injection), and analyzes
// the archive under every requested scheme.
func RunKernel(name string, seed int64, schemes ...vclock.Scheme) (*KernelRun, error) {
	prog, err := scenario.LoadLibrary(name)
	if err != nil {
		return nil, err
	}
	e, err := prog.Run("kern-"+name, seed)
	if err != nil {
		return nil, fmt.Errorf("kernel %s: measuring: %w", name, err)
	}
	kr := &KernelRun{Program: prog, Exp: e, Scale: MasterScale(e), Results: make(map[vclock.Scheme]*replay.Result, len(schemes))}
	for _, sch := range schemes {
		res, err := e.Analyze(sch)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: analyzing (%v): %w", name, sch, err)
		}
		kr.Results[sch] = res
	}
	return kr, nil
}
