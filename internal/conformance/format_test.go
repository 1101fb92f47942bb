package conformance

import (
	"bytes"
	"runtime"
	"testing"

	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// runArtifacts runs one scenario end to end and returns the rendered
// report, profile, and phase profile bytes of its analysis under cfg.
func runArtifacts(t *testing.T, s Scenario, cfg replay.Config) (report, prof, phases []byte) {
	t.Helper()
	e, err := s.NewExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(s.Body); err != nil {
		t.Fatal(err)
	}
	traces, err := e.Traces()
	if err != nil {
		t.Fatal(err)
	}
	return analyzeArtifacts(t, traces, cfg)
}

// analyzeArtifacts analyzes traces under cfg and renders the artifacts.
func analyzeArtifacts(t *testing.T, traces []*trace.Trace, cfg replay.Config) (report, prof, phases []byte) {
	t.Helper()
	res, err := replay.Analyze(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return renderArtifacts(t, res)
}

// v1Traces decodes the checked-in v1 archive of (name, seed) and,
// separately, the v2 re-encode of each of its traces — the bytes
// mttrace -convert would leave on disk.
func v1Traces(t *testing.T, name string, seed int64) (v1, v2 []*trace.Trace) {
	t.Helper()
	images, ok, err := V1Archive(name, seed)
	if err != nil || !ok {
		t.Fatalf("v1 archive %s seed %d: ok=%v err=%v", name, seed, ok, err)
	}
	for r, img := range images {
		tr, err := trace.DecodeBytes(img)
		if err != nil {
			t.Fatalf("rank %d: decoding v1: %v", r, err)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("rank %d: re-encoding: %v", r, err)
		}
		if f, _ := trace.FormatOf(buf.Bytes()); f != trace.FormatV2 {
			t.Fatalf("rank %d: re-encode is %v, want v2", r, f)
		}
		re, err := trace.DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("rank %d: decoding the v2 re-encode: %v", r, err)
		}
		v1, v2 = append(v1, tr), append(v2, re)
	}
	return v1, v2
}

// TestFormatArtifactEquality: the trace encoding is a transport detail.
// A checked-in v1 archive and its v2 re-encode must produce
// byte-identical analysis artifacts.
func TestFormatArtifactEquality(t *testing.T) {
	t.Parallel()
	for _, s := range []Scenario{
		oracleScenarios()[1],  // late-sender grid
		oracleScenarios()[4],  // wait-barrier intra
		oracleScenarios()[11], // late-broadcast grid
	} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "fmt-" + s.Name}
			v1, v2 := v1Traces(t, s.Name, 1)
			r1, p1, h1 := analyzeArtifacts(t, v1, cfg)
			r2, p2, h2 := analyzeArtifacts(t, v2, cfg)
			if !bytes.Equal(r1, r2) {
				t.Errorf("report bytes differ between v1 and v2 archives (%d vs %d)", len(r1), len(r2))
			}
			if !bytes.Equal(p1, p2) {
				t.Errorf("profile bytes differ between v1 and v2 archives (%d vs %d)", len(p1), len(p2))
			}
			if !bytes.Equal(h1, h2) {
				t.Errorf("phase profile bytes differ between v1 and v2 archives (%d vs %d)", len(h1), len(h2))
			}
		})
	}
}

// TestPostPassDeterminism: the wrong-order post-pass and the sender-
// side (remote) contributions are folded after the replay, from inputs
// that racing workers wrote in scheduling-dependent order. The folds
// must order them deterministically, so the report, profile, and phase
// artifacts are byte-identical with one processor and with the default
// GOMAXPROCS. Referenced by script/check.sh as the determinism gate.
// Not parallel: GOMAXPROCS is process-wide.
func TestPostPassDeterminism(t *testing.T) {
	for _, s := range []Scenario{
		oracleScenarios()[1], // late-sender grid (GridLateSender + LateSender deposits)
		oracleScenarios()[0], // late-sender intra
	} {
		t.Run(s.Name, func(t *testing.T) {
			cfg := replay.Config{Scheme: vclock.Hierarchical, Title: "pp-" + s.Name}
			old := runtime.GOMAXPROCS(1)
			rOne, pOne, hOne := runArtifacts(t, s, cfg)
			runtime.GOMAXPROCS(old)
			rDef, pDef, hDef := runArtifacts(t, s, cfg)
			if !bytes.Equal(rOne, rDef) {
				t.Errorf("report bytes differ across GOMAXPROCS (%d vs %d)", len(rOne), len(rDef))
			}
			if !bytes.Equal(pOne, pDef) {
				t.Errorf("profile bytes differ across GOMAXPROCS (%d vs %d)", len(pOne), len(pDef))
			}
			if !bytes.Equal(hOne, hDef) {
				t.Errorf("phase profile bytes differ across GOMAXPROCS (%d vs %d)", len(hOne), len(hDef))
			}
		})
	}
}
