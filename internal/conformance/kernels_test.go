package conformance

import (
	"math"
	"testing"

	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/vclock"
)

// exactKernels lists the library scenarios whose multi-key closed
// forms hold at ExactTol on their (deterministic) topologies.
func exactKernels() []string {
	return []string{"halo1d", "halo2d", "masterworker", "amr", "straggler", "crosstraffic"}
}

// TestCompletionConstantsAgree pins scenario.CompletionPerCall to
// CompletionBound: the kernel expectations budget completion skew per
// collective call using the same constant the planted scenarios are
// checked against.
func TestCompletionConstantsAgree(t *testing.T) {
	t.Parallel()
	if scenario.CompletionPerCall != CompletionBound {
		t.Fatalf("scenario.CompletionPerCall = %g, conformance.CompletionBound = %g",
			scenario.CompletionPerCall, CompletionBound)
	}
}

// TestKernelOracle is the generated-workload arm of the oracle: every
// exact library kernel, from its measured v2 archive and from its
// checked-in v1 archive, analyzed under every synchronization scheme,
// must reproduce its compiled multi-key expectation.
func TestKernelOracle(t *testing.T) {
	for _, name := range exactKernels() {
		for _, f := range archiveFormats {
			name, v1 := name, f == "v1"
			t.Run(name+"/"+f, func(t *testing.T) {
				t.Parallel()
				testKernelOracle(t, name, v1)
			})
		}
	}
}

func testKernelOracle(t *testing.T, name string, v1 bool) {
	for _, seed := range formatSeeds(t, name, v1) {
		kr, err := RunKernel(name, seed,
			vclock.FlatSingle, vclock.FlatInterp, vclock.Hierarchical)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v1 {
			reanalyzeV1(t, kr.Exp, name, seed, kr.Results)
		}
		prog := kr.Program
		if !prog.Expect.Exact {
			t.Fatalf("library scenario %s compiled inexact; the oracle needs exact closed forms", name)
		}
		if len(prog.Expect.Keys) == 0 {
			t.Fatalf("library scenario %s compiled with an empty expectation", name)
		}
		for _, sch := range []vclock.Scheme{vclock.FlatInterp, vclock.Hierarchical} {
			res := kr.Results[sch]
			for _, mm := range CheckKernel(res.Report, prog, kr.Scale, ExactTol) {
				t.Errorf("seed %d %v: %v", seed, sch, mm)
			}
			if res.Violations != 0 {
				t.Errorf("seed %d %v: %d clock-condition violations on the exact testbed",
					seed, sch, res.Violations)
			}
			checkKernelProfileMass(t, res, prog, kr.Scale, sch)
		}
		tol := FlatSingleTol(kr.Exp, prog.Expect.Horizon)
		for _, mm := range CheckKernel(kr.Results[vclock.FlatSingle].Report, prog, kr.Scale, tol) {
			t.Errorf("seed %d %v: %v", seed, vclock.FlatSingle, mm)
		}
	}
}

// checkKernelProfileMass asserts the time-resolved profile carries the
// same total severity mass as the expectation, family by family. The
// profile stores instances under their concrete pattern (base, grid,
// or wrong-order), so the family mass is the sum of the three series,
// compared against the expectation's inclusive family total.
func checkKernelProfileMass(t *testing.T, res *replay.Result, prog *scenario.Program, scale float64, sch vclock.Scheme) {
	t.Helper()
	for key, perRank := range prog.Expect.Keys {
		if scenario.GridKeyFor(key) == "" {
			continue // a grid child; covered via its family
		}
		want := 0.0
		for _, w := range perRank {
			want += w * scale
		}
		got := res.Profile.SeriesTotal(key, -1) +
			res.Profile.SeriesTotal(key+".grid", -1) +
			res.Profile.SeriesTotal(key+".wrong_order", -1)
		if math.Abs(got-want) > ExactTol.For(want) {
			t.Errorf("%v: profile mass under the %s family = %.9g, want %.9g", sch, key, got, want)
		}
	}
}

// TestKernelTruncationFails asserts the damaged-archive scenario does
// what its expectation declares: measurement succeeds, the truncation
// fault is applied, and analysis of the archive fails with an error
// instead of silently producing numbers.
func TestKernelTruncationFails(t *testing.T) {
	t.Parallel()
	kr, err := RunKernel("truncate", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !kr.Program.Expect.Err {
		t.Fatal("truncate scenario compiled without Err expectation")
	}
	if _, err := kr.Exp.Analyze(vclock.Hierarchical); err == nil {
		t.Error("analyzing a truncated archive succeeded, want an error")
	}
}

// TestKernelMutationSensitivity proves CheckKernel can fail: checking
// a conformant run against a perturbed expectation must mismatch.
func TestKernelMutationSensitivity(t *testing.T) {
	t.Parallel()
	kr, err := RunKernel("masterworker", 1, vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	rep := kr.Results[vclock.Hierarchical].Report
	prog := kr.Program
	if mm := CheckKernel(rep, prog, kr.Scale, ExactTol); len(mm) != 0 {
		t.Fatalf("unperturbed kernel oracle already fails: %v", mm)
	}
	mutated := *prog
	mutated.Expect.Keys = make(map[string]map[int]float64, len(prog.Expect.Keys))
	for k, m := range prog.Expect.Keys {
		cp := make(map[int]float64, len(m))
		for r, v := range m {
			cp[r] = v
		}
		mutated.Expect.Keys[k] = cp
	}
	for _, m := range mutated.Expect.Keys {
		for r := range m {
			m[r] *= 1.15
			break
		}
		break
	}
	if mm := CheckKernel(rep, &mutated, kr.Scale, ExactTol); len(mm) == 0 {
		t.Error("kernel oracle accepted a run whose expectation was perturbed by 15%")
	}
}
