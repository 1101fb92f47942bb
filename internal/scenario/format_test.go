package scenario_test

import (
	"bytes"
	"testing"

	"metascope/internal/archive"
	"metascope/internal/conformance"
	"metascope/internal/scenario"
	"metascope/internal/trace"
)

// TestArchiveDeterminismAcrossFormats converts the checked-in v1
// archive of a masterworker run (conformance.V1Archive) to v2 the way
// mttrace -convert does (decode, re-encode); the converted bytes must
// equal the archive a fresh run of the same scenario and seed writes,
// file by file. An external test package, because conformance imports
// scenario.
func TestArchiveDeterminismAcrossFormats(t *testing.T) {
	t.Parallel()
	p, err := scenario.LoadLibrary("masterworker")
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Run("det-fmt", 1)
	if err != nil {
		t.Fatal(err)
	}
	images, ok, err := conformance.V1Archive("masterworker", 1)
	if err != nil || !ok {
		t.Fatalf("v1 archive: ok=%v err=%v", ok, err)
	}
	if len(images) != e.Place.N() {
		t.Fatalf("v1 archive has %d ranks, the run %d", len(images), e.Place.N())
	}
	for r, v1 := range images {
		if f, err := trace.FormatOf(v1); err != nil || f != trace.FormatV1 {
			t.Fatalf("rank %d: fixture format %v, %v; want v1", r, f, err)
		}
		tr, err := trace.DecodeBytes(v1)
		if err != nil {
			t.Fatalf("rank %d: decoding v1: %v", r, err)
		}
		var conv bytes.Buffer
		if err := tr.Encode(&conv); err != nil {
			t.Fatalf("rank %d: re-encoding: %v", r, err)
		}
		v2, err := archive.ReadFile(e.Mounts().For(e.Place.Loc(r).Metahost), archive.TraceFile(e.ArchiveDir, r))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conv.Bytes(), v2) {
			t.Errorf("rank %d: converted v1 archive differs from direct v2 (%d vs %d bytes)",
				r, conv.Len(), len(v2))
		}
	}
}
