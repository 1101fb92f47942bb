package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// environment identifies the machine, toolchain and code a result was
// measured on. Numbers compare only between results whose CPU model,
// nproc and GOMAXPROCS agree.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	// Commit is the git commit run.sh found, or "unknown" outside a
	// git checkout; Source is a digest of the checkout's Go sources,
	// which identifies the code either way.
	Commit   string `json:"commit"`
	Source   string `json:"source_sha256"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
}

func readEnvironment(workload string, seed int64, seconds int, traced bool) environment {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
		Source:     sourceDigest("."),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// cpuModel returns the processor's "model name" from /proc/cpuinfo,
// or "unknown" where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostPace times a fixed CPU-bound loop, sha256 over 1 MiB eight
// times, and returns the median of five passes in ms. It enters no
// metric: printed beside a run's results, it shows whether the host ran
// slower or faster than on other runs, which the program cannot cause.
func hostPace() float64 {
	buf := make([]byte, 1<<20)
	var passes []float64
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		for i := 0; i < 8; i++ {
			sum := sha256.Sum256(buf)
			buf[i] = sum[0]
		}
		passes = append(passes, float64(time.Since(t0).Microseconds())/1e3)
	}
	return quantile(passes, 0.5)
}

// sourceDigest hashes the path and contents of every Go source and
// module file under root, skipping hidden directories such
// as the build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(p + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
