package conformance

import (
	"embed"
	"fmt"
	"path"
	"reflect"

	"metascope"
	"metascope/internal/archive"
	"metascope/internal/trace"
)

// v1Archives holds checked-in MSCP v1 archives: testdata/v1/<name>-seed<k>/
// trace.<rank>.mscp for every planted scenario and exact library kernel
// at seed 1, plus halo2d at seed 5. They were written by the v1 encoder
// before it was retired and are now the only v1 bytes the suite has;
// they are never regenerated.
//
//go:embed testdata/v1
var v1Archives embed.FS

// V1Archive returns the checked-in v1 trace images of a scenario or
// library kernel measured at seed, indexed by rank. ok is false when no
// such fixture exists.
func V1Archive(name string, seed int64) (images [][]byte, ok bool, err error) {
	dir := fmt.Sprintf("testdata/v1/%s-seed%d", name, seed)
	entries, err := v1Archives.ReadDir(dir)
	if err != nil {
		return nil, false, nil
	}
	images = make([][]byte, len(entries))
	for r := range images {
		if images[r], err = v1Archives.ReadFile(path.Join(dir, fmt.Sprintf("trace.%d.mscp", r))); err != nil {
			return nil, false, err
		}
	}
	return images, true, nil
}

// UseV1Archive swaps the trace files of an experiment that ran name at
// seed for the checked-in v1 images of the same run, so every later
// load or analysis of e reads v1 bytes. Each image must be v1 and must
// decode to exactly the trace the run wrote; ok is false when no
// fixture exists for (name, seed).
func UseV1Archive(e *metascope.Experiment, name string, seed int64) (ok bool, err error) {
	images, ok, err := V1Archive(name, seed)
	if !ok || err != nil {
		return false, err
	}
	if len(images) != e.Place.N() {
		return false, fmt.Errorf("conformance: v1 fixture %s has %d ranks, the run %d", name, len(images), e.Place.N())
	}
	for r, img := range images {
		fs := e.Mounts().For(e.Place.Loc(r).Metahost)
		file := archive.TraceFile(e.ArchiveDir, r)
		cur, err := archive.ReadFile(fs, file)
		if err != nil {
			return false, err
		}
		want, err := trace.DecodeBytes(cur)
		if err != nil {
			return false, err
		}
		got, err := trace.DecodeBytes(img)
		if err != nil {
			return false, fmt.Errorf("conformance: v1 fixture %s rank %d: %w", name, r, err)
		}
		if f, _ := trace.FormatOf(img); f != trace.FormatV1 {
			return false, fmt.Errorf("conformance: v1 fixture %s rank %d is %v", name, r, f)
		}
		if !reflect.DeepEqual(got, want) {
			return false, fmt.Errorf("conformance: v1 fixture %s rank %d does not decode to the run's trace", name, r)
		}
		w, err := fs.Create(file)
		if err != nil {
			return false, err
		}
		if _, err := w.Write(img); err != nil {
			w.Close()
			return false, err
		}
		if err := w.Close(); err != nil {
			return false, err
		}
	}
	return true, nil
}
