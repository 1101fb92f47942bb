package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"metascope"
	"metascope/internal/archive"
)

// archiveDigest hashes every file of an experiment's archive, in
// (metahost, path) order, into one hex digest.
func archiveDigest(t *testing.T, e *metascope.Experiment) string {
	t.Helper()
	h := sha256.New()
	for _, mh := range e.Place.MetahostsUsed() {
		fs := e.Mounts().For(mh)
		files, err := fs.List(e.ArchiveDir)
		if err != nil {
			t.Fatalf("listing metahost %d: %v", mh, err)
		}
		sort.Strings(files)
		for _, f := range files {
			data, err := archive.ReadFile(fs, e.ArchiveDir+"/"+f)
			if err != nil {
				t.Fatalf("reading %s: %v", f, err)
			}
			fmt.Fprintf(h, "%d/%s/%d\n", mh, f, len(data))
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runLibrary(t *testing.T, name, title string, seed int64) *metascope.Experiment {
	t.Helper()
	p, err := LoadLibrary(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Run(title, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestArchiveDeterminismAcrossGOMAXPROCS runs the same scenario and
// seed under GOMAXPROCS=1 and under the test default, requiring
// byte-identical archives: the simulation and trace writers must be
// free of scheduling-dependent output.
func TestArchiveDeterminismAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	d1 := archiveDigest(t, runLibrary(t, "halo2d", "det-gmp", 5))
	runtime.GOMAXPROCS(old)
	dN := archiveDigest(t, runLibrary(t, "halo2d", "det-gmp", 5))
	if d1 != dN {
		t.Fatalf("archive digest differs across GOMAXPROCS: %s vs %s", d1, dN)
	}
}

// TestRunDeterminismSameSeed is the base case: two runs of the same
// compiled program and seed produce byte-identical archives.
func TestRunDeterminismSameSeed(t *testing.T) {
	t.Parallel()
	a := archiveDigest(t, runLibrary(t, "amr", "det-seed", 3))
	b := archiveDigest(t, runLibrary(t, "amr", "det-seed", 3))
	if a != b {
		t.Fatalf("same scenario, same seed, different archives: %s vs %s", a, b)
	}
	c := archiveDigest(t, runLibrary(t, "amr", "det-seed", 4))
	if a == c {
		t.Fatal("different experiment seeds produced identical archives; the digest is not sensitive")
	}
}
