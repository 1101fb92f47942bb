package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"metascope"
	"metascope/internal/apps/metatrace"
	"metascope/internal/archive"
	"metascope/internal/measure"
	"metascope/internal/obs"
	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// chunkSize is the live feed's chunk size; chunks are interleaved
// round-robin over ranks, the way a per-rank uploader delivers them.
const chunkSize = 64 << 10

// workload is one benchmark input. build simulates the run and writes
// its archive to the experiment's in-memory mounts; live selects the
// streaming ingestion path instead of the post-mortem one.
type workload struct {
	name  string
	live  bool
	build func(seed int64) (*metascope.Experiment, error)
}

var workloads = []workload{
	{name: "exp1", build: exp1Experiment},
	{name: "exp1-live", live: true, build: exp1Experiment},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exp1Experiment runs MetaTrace Experiment 1 on VIOLA (Table 3's
// three-metahost layout, 32 ranks).
func exp1Experiment(seed int64) (*metascope.Experiment, error) {
	topo := metascope.VIOLA()
	place := metascope.ViolaExperiment1Placement(topo)
	e := metascope.NewExperiment("metatrace-exp1", topo, place, seed)
	if err := e.Build(); err != nil {
		return nil, err
	}
	params, err := metatrace.Setup(e.World(), metatrace.Default(place.N()/2))
	if err != nil {
		return nil, err
	}
	return e, e.Run(func(m *measure.M) { metatrace.Body(m, params) })
}

// input is a workload's generated archive plus what the checks and
// probes derive from it once, outside the timed loop.
type input struct {
	exp    *metascope.Experiment
	title  string
	blobs  [][]byte // per-rank archive file bytes: the v2 wire encoding
	chunks []chunk  // the live feed order over blobs
	digest string   // sha256 over blobs, in rank order
	bytes  int64    // archive size
	traces []*trace.Trace
	events int // events in the archive
}

type chunk struct {
	rank int
	data []byte
}

// setup simulates the run and writes the archive; the live workload
// also reads the per-rank wire bytes it will feed. This is what
// setup_s times.
func setup(w workload, seed int64) (*input, error) {
	e, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	in := &input{exp: e, title: fmt.Sprintf("%s (%v)", e.Title, vclock.Hierarchical)}
	if w.live {
		if err := in.readBlobs(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// readBlobs reads every rank's trace file from its metahost's mount.
func (in *input) readBlobs() error {
	place := in.exp.Place
	in.blobs = make([][]byte, place.N())
	for r := range in.blobs {
		fs := in.exp.Mounts().For(place.Loc(r).Metahost)
		data, err := archive.ReadFile(fs, archive.TraceFile(in.exp.ArchiveDir, r))
		if err != nil {
			return fmt.Errorf("reading rank %d: %w", r, err)
		}
		in.blobs[r] = data
	}
	return nil
}

// prepare derives the checks' reference data from the archive: its
// digest, size and event count, the decoded traces, and the live chunk
// order. It runs once, untimed.
func (in *input) prepare() error {
	if in.blobs == nil {
		if err := in.readBlobs(); err != nil {
			return err
		}
	}
	h := sha256.New()
	for r, b := range in.blobs {
		if f, err := trace.FormatOf(b); err != nil || f != trace.FormatV2 {
			return fmt.Errorf("rank %d archive file is not v2 (%v, %v)", r, f, err)
		}
		h.Write(b)
		in.bytes += int64(len(b))
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	offs := make([]int, len(in.blobs))
	for progressed := true; progressed; {
		progressed = false
		for r, b := range in.blobs {
			if offs[r] >= len(b) {
				continue
			}
			end := min(offs[r]+chunkSize, len(b))
			in.chunks = append(in.chunks, chunk{rank: r, data: b[offs[r]:end]})
			offs[r] = end
			progressed = true
		}
	}
	traces, err := in.exp.Traces()
	if err != nil {
		return err
	}
	in.traces = traces
	for _, t := range traces {
		in.events += len(t.Events)
	}
	return nil
}

// outcome is one analysis: its result, serialized artifacts and the
// quantities the end-to-end metrics and checks read.
type outcome struct {
	res *replay.Result
	art [3][]byte // cube, profile, phases
	// events is the number of events the analysis consumed, as the
	// program counted them (replay sweep or live ingest).
	events int
	// wall runs from input available to all three artifacts
	// serialized; finalize from the last input ingested to the result.
	wall, finalize time.Duration
	windows        int64 // live only: windows closed
	streamEvents   int64 // live only: stream events emitted
}

// artifactNames name the artifacts in outcome.art order, as their
// layers' metric prefixes.
var artifactNames = [3]string{"cube", "profile", "phase"}

// hashes returns the sha256 of each artifact in hex.
func (o *outcome) hashes() [3]string {
	var out [3]string
	for i, b := range o.art {
		s := sha256.Sum256(b)
		out[i] = hex.EncodeToString(s[:])
	}
	return out
}

// analyze runs one analysis of the input on the workload's path.
func analyze(w workload, in *input, tr *tracer, aid int, root string) (*outcome, error) {
	if w.live {
		return analyzeLive(in, tr, aid, root)
	}
	return analyzePostMortem(in, tr, aid, root)
}

// eventsSwept reads the analyzer's own swept-events counter.
func eventsSwept(rec *obs.Recorder) float64 {
	return obs.OrDefault(rec).Reg.Counter("metascope_replay_events_total",
		"trace events swept during replay analysis").With().Value()
}

// analyzePostMortem is LoadArchive → Analyze (hierarchical sync) →
// artifacts. A traced analysis hands Analyze a private obs recorder
// and turns its sync/replay/pattern-search phases into child spans.
func analyzePostMortem(in *input, tr *tracer, aid int, root string) (*outcome, error) {
	var rec *obs.Recorder
	if tr != nil {
		rec = obs.NewRecorder()
	}
	swept0 := eventsSwept(rec)
	o := &outcome{}
	rs := tr.begin(aid, 0, root, true)
	t0 := time.Now()
	sp := tr.begin(aid, rs, "ingest.load", true)
	traces, err := replay.LoadArchive(in.exp.Mounts(), in.exp.Place.MetahostsUsed(), in.exp.ArchiveDir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	sp = tr.begin(aid, rs, "replay.analyze", true)
	res, err := replay.Analyze(traces, replay.Config{Scheme: vclock.Hierarchical, Title: in.title, Obs: rec})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.obsPhases(aid, sp, rec)
	o.finalize = time.Since(loaded)
	if err := writeArtifacts(tr, aid, rs, res, o); err != nil {
		return nil, err
	}
	o.wall = time.Since(t0)
	tr.end(rs)
	o.res = res
	o.events = int(eventsSwept(rec) - swept0)
	return o, nil
}

// analyzeLive feeds the archive's wire bytes to a live session in
// 64 KiB chunks, round-robin over ranks, then finalizes it and writes
// the artifacts.
func analyzeLive(in *input, tr *tracer, aid int, root string) (*outcome, error) {
	var nev, windows atomic.Int64
	o := &outcome{}
	rs := tr.begin(aid, 0, root, true)
	t0 := time.Now()
	sp := tr.begin(aid, rs, "live.new", false)
	l, err := replay.NewLive(replay.LiveConfig{
		Config:    replay.Config{Scheme: vclock.Hierarchical, Title: in.title},
		Ranks:     len(in.blobs),
		WindowSec: 0.5,
		OnEvent: func(ev replay.StreamEvent) {
			nev.Add(1)
			if ev.Summary != nil {
				windows.Store(ev.Summary.WindowsClosed)
			}
		},
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	feed := tr.begin(aid, rs, "live.feed", true)
	for _, c := range in.chunks {
		cs := tr.begin(aid, feed, "live.feed_chunk", false)
		err := l.FeedChunk(c.rank, c.data)
		tr.end(cs)
		if err != nil {
			// Finalize reaps the session's goroutines.
			_, _ = l.Finalize(ctx)
			return nil, err
		}
	}
	tr.end(feed)
	fed := time.Now()
	sp = tr.begin(aid, rs, "live.finalize", true)
	res, err := l.Finalize(ctx)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	o.finalize = time.Since(fed)
	if err := writeArtifacts(tr, aid, rs, res, o); err != nil {
		return nil, err
	}
	o.wall = time.Since(t0)
	tr.end(rs)
	o.res = res
	o.events = int(l.Status().EventsIngested)
	o.windows, o.streamEvents = windows.Load(), nev.Load()
	return o, nil
}

// writeArtifacts serializes the cube, profile and phase artifacts.
func writeArtifacts(tr *tracer, aid, parent int, res *replay.Result, o *outcome) error {
	var cube, prof, phases bytes.Buffer
	sp := tr.begin(aid, parent, "cube.write", true)
	err := res.Report.Write(&cube)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("writing cube: %w", err)
	}
	sp = tr.begin(aid, parent, "profile.write", true)
	err = res.Profile.WriteJSON(&prof)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	sp = tr.begin(aid, parent, "phase.write", true)
	err = writePhases(res, &phases)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("writing phases: %w", err)
	}
	o.art = [3][]byte{cube.Bytes(), prof.Bytes(), phases.Bytes()}
	return nil
}
