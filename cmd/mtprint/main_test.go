package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"metascope"
	"metascope/internal/conformance"
	"metascope/internal/pattern"
	"metascope/internal/replay"
	"metascope/internal/scenario"
	"metascope/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenFormats drives every golden test over both trace encodings:
// the rendered output must match the SAME golden file whether the
// analysis read the measured v2 archive or the run's checked-in v1
// archive (conformance.UseV1Archive).
func goldenFormats(t *testing.T, f func(t *testing.T, v1 bool)) {
	for _, name := range []string{"v1", "v2"} {
		v1 := name == "v1"
		t.Run(name, func(t *testing.T) { f(t, v1) })
	}
}

// useV1 swaps e's archive for the checked-in v1 archive of the same
// run, which must exist.
func useV1(t *testing.T, e *metascope.Experiment, name string) {
	t.Helper()
	if ok, err := conformance.UseV1Archive(e, name, 1); err != nil || !ok {
		t.Fatalf("v1 archive %s: ok=%v err=%v", name, ok, err)
	}
}

// fixtureCube runs a deterministic conformance scenario and writes its
// analysis report, giving the golden tests a real cube produced by the
// full pipeline rather than a hand-built fake. The scenario is the
// oracle's wait-barrier-intra under another name, so it shares that
// scenario's v1 archive.
func fixtureCube(t *testing.T, v1 bool) (cubePath, profilePath string) {
	t.Helper()
	s := conformance.Scenario{
		Name: "golden", Base: pattern.WaitBarrier,
		Delays: []float64{0.05, 0.17, 0.08, 0.26}, Align: 1.0,
	}
	rr, err := conformance.RunScenario(s, 1, vclock.Hierarchical)
	if err != nil {
		t.Fatal(err)
	}
	res := rr.Results[vclock.Hierarchical]
	if v1 {
		useV1(t, rr.Exp, "wait-barrier-intra")
		if res, err = rr.Exp.Analyze(vclock.Hierarchical); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	cubePath = filepath.Join(dir, "report.cube")
	f, err := os.Create(cubePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	profilePath = filepath.Join(dir, "profile.json")
	if err := res.Profile.WriteFile(profilePath); err != nil {
		t.Fatal(err)
	}
	return cubePath, profilePath
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden file (rerun with -update after intentional changes)\ngot:\n%s", name, got)
	}
}

func TestGoldenMetricTree(t *testing.T) {
	goldenFormats(t, func(t *testing.T, v1 bool) {
		cube, _ := fixtureCube(t, v1)
		var buf bytes.Buffer
		if err := run(nil, options{}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "metric-tree.golden", buf.Bytes())
	})
}

func TestGoldenMetricList(t *testing.T) {
	goldenFormats(t, func(t *testing.T, v1 bool) {
		cube, _ := fixtureCube(t, v1)
		var buf bytes.Buffer
		if err := run(nil, options{list: true}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "metric-list.golden", buf.Bytes())
	})
}

func TestGoldenFigure(t *testing.T) {
	goldenFormats(t, func(t *testing.T, v1 bool) {
		cube, _ := fixtureCube(t, v1)
		var buf bytes.Buffer
		if err := run(nil, options{metric: pattern.KeyWaitBarrier}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "figure.golden", buf.Bytes())
	})
}

func TestGoldenHTML(t *testing.T) {
	goldenFormats(t, func(t *testing.T, v1 bool) {
		cube, profile := fixtureCube(t, v1)
		htmlOut := filepath.Join(t.TempDir(), "report.html")
		var buf bytes.Buffer
		if err := run(nil, options{htmlOut: htmlOut, profileIn: profile}, []string{cube}, &buf); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(htmlOut)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "report.html.golden", got)
	})
}

// fixturePhases analyzes a deterministic straggler kernel and writes
// its phase profile, so the golden test renders a real multi-phase
// artifact produced by the full pipeline.
func fixturePhases(t *testing.T, v1 bool) string {
	t.Helper()
	prog, err := scenario.LoadLibrary("straggler")
	if err != nil {
		t.Fatal(err)
	}
	e, err := prog.Run("print-phases", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v1 {
		useV1(t, e, "straggler")
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: "print-phases"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "phases.json")
	if err := res.Phases.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGoldenPhases(t *testing.T) {
	goldenFormats(t, func(t *testing.T, v1 bool) {
		phases := fixturePhases(t, v1)
		var buf bytes.Buffer
		if err := run(nil, options{phasesIn: phases}, nil, &buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "phases.golden", buf.Bytes())
	})
}

func TestRunRejectsBadUsage(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, options{}, nil, &buf); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run(nil, options{phasesIn: "phases.json"}, []string{"report.cube"}, &buf); err == nil {
		t.Error("-phases with a positional argument accepted")
	}
	if err := run(nil, options{phasesIn: filepath.Join(t.TempDir(), "missing.json")}, nil, &buf); err == nil {
		t.Error("missing phase artifact accepted")
	}
	if err := run(nil, options{}, []string{"a", "b"}, &buf); err == nil {
		t.Error("two arguments accepted")
	}
	if err := run(nil, options{}, []string{filepath.Join(t.TempDir(), "missing.cube")}, &buf); err == nil {
		t.Error("missing cube file accepted")
	}
}
