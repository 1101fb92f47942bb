package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metascope/internal/conformance"
	"metascope/internal/trace"
)

// TestConvertRoundTrip: converting a checked-in v1 trace file must
// leave a v2 file in place that decodes to the unchanged trace, and
// converting again must rewrite identical bytes.
func TestConvertRoundTrip(t *testing.T) {
	images, ok, err := conformance.V1Archive("late-sender-intra", 1)
	if err != nil || !ok {
		t.Fatalf("v1 fixture: ok=%v err=%v", ok, err)
	}
	orig := images[0]
	want, err := trace.DecodeBytes(orig)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.0.mscp")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := convert(path); err != nil {
		t.Fatal(err)
	}
	conv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := trace.FormatOf(conv); err != nil || f != trace.FormatV2 {
		t.Fatalf("after convert: format %v, err %v; want v2", f, err)
	}
	got, err := trace.DecodeBytes(conv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("converted file decodes to a different trace")
	}

	// Idempotence: converting a v2 file rewrites identical bytes.
	if err := convert(path); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, conv) {
		t.Error("converting a v2 file changed the bytes")
	}
}

// TestConvertRejectsGarbage: a corrupt input must fail cleanly and
// leave the original file untouched.
func TestConvertRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.mscp")
	junk := []byte("not a trace at all")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := convert(path); err == nil {
		t.Fatal("convert accepted garbage input")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, junk) {
		t.Error("failed convert modified the input file")
	}
}
