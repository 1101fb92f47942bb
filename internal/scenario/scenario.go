// Package scenario is the declarative workload front-end of the
// toolchain: a small scenario language (an indentation-based YAML
// subset, or JSON) describing a metacomputer — metahosts, link
// latencies and bandwidths, clock models — together with an
// application kernel, its parameters, and fault injection (stragglers,
// bursty WAN cross-traffic windows, trace truncation). A compiler
// lowers a scenario onto internal/sim + internal/mmpi +
// internal/topology, producing a measured trace archive through the
// normal pipeline, and derives a closed-form expectation of every
// wait-state severity the analyzer must recover, so the conformance
// oracle can verify generated workloads exactly as it verifies the
// planted single-pattern scenarios.
//
// The kernels are aligned-step workloads: each global step starts at a
// pre-computed simulation time every rank sleeps to, performs
// deterministic per-rank work drawn from the scenario's own PRNG, and
// issues exactly one blocking communication construct. Because the
// replay analyzer computes wait states from region-enter deltas, the
// resulting severities are pure functions of the work tables —
// independent of transfer times, latency modelling, and cross-traffic
// — and exact on the deterministic conformance testbed.
package scenario

import (
	"fmt"
)

// Error is a structured scenario error: where in the document it was
// detected (1-based source line when known, dotted field path) and
// what went wrong. Parsing and validation return *Error values and
// never panic, whatever the input.
type Error struct {
	Line int    // 1-based source line; 0 when unknown (e.g. JSON input)
	Path string // dotted field path, e.g. "topology.metahosts[1].clock"
	Msg  string
}

func (e *Error) Error() string {
	switch {
	case e.Line > 0 && e.Path != "":
		return fmt.Sprintf("scenario: line %d: %s: %s", e.Line, e.Path, e.Msg)
	case e.Line > 0:
		return fmt.Sprintf("scenario: line %d: %s", e.Line, e.Msg)
	case e.Path != "":
		return fmt.Sprintf("scenario: %s: %s", e.Path, e.Msg)
	default:
		return "scenario: " + e.Msg
	}
}

func errAt(line int, path, format string, args ...interface{}) *Error {
	return &Error{Line: line, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Kernel names accepted by the "kernel" field.
const (
	KernelHalo1D       = "halo1d"
	KernelHalo2D       = "halo2d"
	KernelMasterWorker = "masterworker"
	KernelAMR          = "amr"
	KernelStraggler    = "straggler"
)

// Kernels lists every shipped kernel in display order.
func Kernels() []string {
	return []string{KernelHalo1D, KernelHalo2D, KernelMasterWorker, KernelAMR, KernelStraggler}
}

// Spec is a fully decoded scenario document. Zero values stand for
// "not set"; Parse fills defaults and Validate enforces ranges, so a
// Spec obtained from Parse is always internally consistent.
type Spec struct {
	Name       string
	Kernel     string
	Seed       int64
	Ranks      int
	Iterations int
	Bytes      int // p2p payload; must stay under the eager limit

	Topology  TopoSpec
	Placement []PlaceSpec
	Schedule  ScheduleSpec
	Work      WorkSpec
	Params    ParamSpec
	Faults    FaultSpec
}

// TopoSpec selects either a named preset or a custom metahost list.
type TopoSpec struct {
	Preset    string // "conformance" (default when Metahosts is empty)
	Count     int    // metahost count for the preset
	Metahosts []MetahostSpec
	External  *LinkSpec // override for inter-metahost links
	Asymmetry bool      // enable per-route latency asymmetry (breaks exactness)
}

// MetahostSpec describes one custom metahost.
type MetahostSpec struct {
	Name      string
	Nodes     int
	CPUs      int
	Speed     float64 // relative execution speed (work units per second)
	Internal  LinkSpec
	NodeLocal *LinkSpec
	Clock     ClockSpec
}

// LinkSpec describes one network segment in human units.
type LinkSpec struct {
	LatencyUS     float64 // one-way latency mean, microseconds
	JitterUS      float64 // latency standard deviation, microseconds
	BandwidthGbps float64
	Dedicated     *bool // nil = true (no cross-traffic spikes)
}

// ClockSpec describes a metahost's node clocks in human units.
type ClockSpec struct {
	MaxOffsetMS   float64
	MaxDriftPPM   float64
	GranularityUS float64
	Synchronized  bool
}

// PlaceSpec places a block of ranks: nodes × per_node processes on the
// given metahost starting at first_node.
type PlaceSpec struct {
	Metahost  int
	FirstNode int
	Nodes     int
	PerNode   int
}

// ScheduleSpec tunes the aligned-step schedule.
type ScheduleSpec struct {
	Align float64 // absolute start of the first step (after init sync)
	Slack float64 // per-step headroom beyond the worst-case work
}

// WorkSpec is the base per-rank work model in work units (seconds on a
// speed-1.0 machine): base plus a uniform [0, spread) draw from the
// scenario PRNG per rank and step.
type WorkSpec struct {
	Base   float64
	Spread float64
}

// ParamSpec holds kernel-specific parameters; unused fields are
// ignored by kernels that do not consume them.
type ParamSpec struct {
	PX, PY        int     // halo2d process grid
	Prep          float64 // masterworker: mean per-task handout cost
	PrepSpread    float64
	Collect       float64 // masterworker: mean per-result collect cost
	CollectSpread float64
	Window        int     // amr: refinement window width (ranks)
	Amp           float64 // amr: extra work inside the window
}

// FaultSpec is the injected-fault section.
type FaultSpec struct {
	Stragglers   []StragglerSpec
	CrossTraffic []BurstSpec
	Truncate     []TruncateSpec
}

// StragglerSpec multiplies one rank's work by Factor over the
// iteration range [From, To] (inclusive, 0-based).
type StragglerSpec struct {
	Rank   int
	Factor float64
	From   int
	To     int
}

// BurstSpec adds ExtraMS milliseconds of one-way latency to every
// message on links of the given class during the simulation-time
// window [From, To). Class is "external", "internal", "same-node", or
// "any".
type BurstSpec struct {
	From    float64
	To      float64
	ExtraMS float64
	Class   string
}

// TruncateSpec cuts one rank's trace file to the given fraction of its
// bytes after measurement — a rank-failure model. Analysis of the
// archive is then expected to fail with a structured decode error.
type TruncateSpec struct {
	Rank int
	Keep float64 // fraction of bytes kept, in (0, 1)
}

// rng is a splitmix64 generator: the scenario's own deterministic
// randomness for work tables, independent of the simulation engine's
// streams so that expectations can be computed without running
// anything.
type rng struct{ s uint64 }

func newRNG(seed int64, salt string) *rng {
	s := uint64(seed)
	for _, c := range []byte(salt) {
		s = (s ^ uint64(c)) * 1099511628211 // FNV-1a step
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
