// Package metascope reproduces the metacomputing-enabled automatic
// trace analysis of Becker et al., "Automatic Trace-Based Performance
// Analysis of Metacomputing Applications" (IPPS 2007): a SCALASCA-style
// toolchain — measurement, hierarchical time-stamp synchronization,
// distributed archive management, parallel replay-based wait-state
// search with metacomputing-specific patterns — running on a
// deterministic discrete-event simulation of a metacomputer.
//
// The central type is Experiment, which wires together a topology, a
// process placement, virtual clocks, per-metahost file systems, and the
// measurement runtime:
//
//	topo := metascope.VIOLA()
//	place := metascope.ViolaExperiment1Placement(topo)
//	e := metascope.NewExperiment("metatrace", topo, place, 42)
//	if err := e.Build(); err != nil { ... }
//	params, _ := metatrace.Setup(e.World(), metatrace.Default(16))
//	e.Run(func(m *measure.M) { metatrace.Body(m, params) })
//	res, _ := e.Analyze(metascope.Hierarchical)
//	fmt.Print(res.Report.RenderMetricTree())
//
// All substrates live under internal/; this package is the supported
// surface.
package metascope

import (
	"fmt"

	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/mmpi"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/sim"
	"metascope/internal/topology"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// Scheme selects a time-stamp synchronization scheme (Table 2).
type Scheme = vclock.Scheme

// The three synchronization schemes compared in the paper.
const (
	FlatSingle   = vclock.FlatSingle
	FlatInterp   = vclock.FlatInterp
	Hierarchical = vclock.Hierarchical
)

// Re-exported topology constructors (see internal/topology for the
// full builder API).
var (
	// VIOLA is the paper's three-metahost optical-testbed topology.
	VIOLA = topology.VIOLA
	// VIOLAShared is VIOLA with shared (non-dedicated) external links.
	VIOLAShared = topology.VIOLAShared
	// IBMPower is the homogeneous comparison system of Experiment 2.
	IBMPower = topology.IBMPower
	// ViolaExperiment1Placement is the Table 3 three-metahost layout.
	ViolaExperiment1Placement = topology.ViolaExperiment1Placement
	// IBMExperiment2Placement is the Table 3 one-metahost layout.
	IBMExperiment2Placement = topology.IBMExperiment2Placement
)

// Experiment bundles everything one measured run needs. Fields may be
// adjusted between NewExperiment and Build; after Build the experiment
// is wired and Run/Analyze drive the pipeline.
type Experiment struct {
	Title string
	Seed  int64
	Topo  *topology.Metacomputer
	Place *topology.Placement

	// SharedFS mounts one file system for every metahost (the
	// single-machine situation); the default gives each metahost its
	// own file system, the metacomputing situation the archive
	// protocol exists for.
	SharedFS bool
	// ArchiveDir overrides the default archive directory name.
	ArchiveDir string
	// PingPongs overrides the offset-measurement exchange count.
	PingPongs int
	// EagerLimit overrides the message-passing eager/rendezvous
	// threshold (bytes).
	EagerLimit int
	// AsymFrac overrides the per-route latency-asymmetry fraction of
	// the message-passing layer (negative disables asymmetry; zero
	// keeps the default). Used by the calibration ablations.
	AsymFrac float64
	// CrossTraffic injects extra one-way latency (seconds) into every
	// message as a pure function of simulation time and link class —
	// the scenario fleet's windowed WAN cross-traffic bursts. Nil
	// leaves the links undisturbed.
	CrossTraffic func(now float64, class topology.LinkClass) float64
	// Obs receives metrics, phase timings, and logs for this
	// experiment; nil uses the process-wide obs.Default recorder.
	Obs *obs.Recorder

	eng    *sim.Engine
	clocks *vclock.Set
	mounts *archive.Mounts
	world  *mmpi.World
	built  bool
	ran    bool
}

// NewExperiment creates an experiment on the given topology and
// placement. The seed determines clocks, latency jitter, and route
// asymmetries; the same seed reproduces the run bit-for-bit.
func NewExperiment(title string, topo *topology.Metacomputer, place *topology.Placement, seed int64) *Experiment {
	return &Experiment{
		Title:      title,
		Seed:       seed,
		Topo:       topo,
		Place:      place,
		ArchiveDir: "epik_" + title,
	}
}

// Recorder returns the experiment's observability recorder,
// falling back to obs.Default when none was set.
func (e *Experiment) Recorder() *obs.Recorder { return obs.OrDefault(e.Obs) }

// Build validates the configuration and instantiates the simulation
// engine, virtual clocks, file systems, and the MPI world.
func (e *Experiment) Build() error {
	if e.built {
		return fmt.Errorf("metascope: experiment %q already built", e.Title)
	}
	defer e.Recorder().Phases.Start("build").End()
	if err := e.Topo.Validate(); err != nil {
		return err
	}
	if err := e.Place.Validate(); err != nil {
		return err
	}
	e.eng = sim.NewEngine(e.Seed)
	e.clocks = vclock.Generate(e.eng, e.Topo)
	e.mounts = archive.NewMounts()
	if e.SharedFS {
		fs := archive.NewMemFS("shared")
		for _, m := range e.Topo.Metahosts {
			e.mounts.Mount(m.ID, fs)
		}
	} else {
		for _, m := range e.Topo.Metahosts {
			e.mounts.Mount(m.ID, archive.NewMemFS(m.Name))
		}
	}
	e.world = mmpi.NewWorld(e.eng, e.Place)
	e.world.CrossTraffic = e.CrossTraffic
	if e.EagerLimit > 0 {
		e.world.EagerLimit = e.EagerLimit
	}
	if e.AsymFrac != 0 {
		f := e.AsymFrac
		if f < 0 {
			f = 0
		}
		e.world.AsymFrac = f
	}
	e.built = true
	return nil
}

// Engine returns the simulation engine (after Build).
func (e *Experiment) Engine() *sim.Engine { return e.eng }

// World returns the MPI world (after Build); use it to predefine
// communicators before Run.
func (e *Experiment) World() *mmpi.World { return e.world }

// Clocks returns the generated virtual clocks (after Build). Tests use
// them as ground truth for synchronization accuracy.
func (e *Experiment) Clocks() *vclock.Set { return e.clocks }

// Mounts returns the per-metahost file systems (after Build).
func (e *Experiment) Mounts() *archive.Mounts { return e.mounts }

// UseMounts replaces the generated in-memory mounts (e.g. with on-disk
// archives for the command-line tools). Call between Build and Run.
func (e *Experiment) UseMounts(m *archive.Mounts) {
	if e.ran {
		panic("metascope: UseMounts after Run")
	}
	e.mounts = m
}

// Run executes body on every rank under measurement, producing one
// local trace file per process in the per-metahost archives.
func (e *Experiment) Run(body func(m *measure.M)) error {
	if !e.built {
		if err := e.Build(); err != nil {
			return err
		}
	}
	if e.ran {
		return fmt.Errorf("metascope: experiment %q already ran", e.Title)
	}
	e.ran = true
	rec := e.Recorder()
	span := rec.Phases.Start("measure")
	cfg := measure.Config{
		ArchiveDir: e.ArchiveDir,
		Mounts:     e.mounts,
		Clocks:     e.clocks,
		PingPongs:  e.PingPongs,
		Obs:        rec,
	}
	_, err := measure.Run(e.world, cfg, body)
	d := span.End()
	if err != nil {
		rec.Log.Error("measurement failed", "experiment", e.Title, "err", err)
	} else {
		rec.Log.Debug("measurement complete", "experiment", e.Title,
			"ranks", e.Place.N(), "seconds", fmt.Sprintf("%.3f", d.Seconds()))
	}
	return err
}

// Traces loads the local trace files back from the archives.
func (e *Experiment) Traces() ([]*trace.Trace, error) {
	return replay.LoadArchiveObs(e.mounts, e.Place.MetahostsUsed(), e.ArchiveDir, e.Obs)
}

// Analyze runs the parallel replay analysis under the given
// synchronization scheme and returns the result (report, violation
// count, statistics).
func (e *Experiment) Analyze(scheme Scheme) (*replay.Result, error) {
	return e.AnalyzeConfig(replay.Config{Scheme: scheme})
}

// AnalyzeConfig is Analyze with full control over the analysis
// configuration (timestamp repair, eager limit, title).
func (e *Experiment) AnalyzeConfig(cfg replay.Config) (*replay.Result, error) {
	if !e.ran {
		return nil, fmt.Errorf("metascope: experiment %q has not run yet", e.Title)
	}
	if cfg.EagerLimit == 0 {
		cfg.EagerLimit = e.EagerLimit
		if cfg.EagerLimit == 0 {
			cfg.EagerLimit = mmpi.DefaultEagerLimit
		}
	}
	if cfg.Title == "" {
		cfg.Title = fmt.Sprintf("%s (%v)", e.Title, cfg.Scheme)
	}
	if cfg.Obs == nil {
		cfg.Obs = e.Obs
	}
	return replay.AnalyzeArchive(e.mounts, e.Place.MetahostsUsed(), e.ArchiveDir, cfg)
}

// AnalyzeAll analyzes the same archive under every synchronization
// scheme — the comparison of Table 2 — returning results keyed by
// scheme.
func (e *Experiment) AnalyzeAll() (map[Scheme]*replay.Result, error) {
	out := make(map[Scheme]*replay.Result, 3)
	for _, s := range []Scheme{FlatSingle, FlatInterp, Hierarchical} {
		r, err := e.Analyze(s)
		if err != nil {
			return nil, fmt.Errorf("metascope: analyzing with %v: %w", s, err)
		}
		out[s] = r
	}
	return out, nil
}
