// Command perfbench is metascope's benchmark. It generates one of two
// workloads from a seed, drives it closed-loop (one analysis at a time)
// through the analysis pipeline's public entry points for a fixed
// number of seconds, checks every analysis's artifacts against a
// reference, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records a span around every call into a layer and reports
// the per-layer metrics instead. See README.md in this directory.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload exp1 --seed 42 --seconds 10 --trace 0
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"metascope/internal/replay"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

const (
	// archivesPerRun is how many archives an untraced run analyzes in
	// turn. The exp1 archives' phase structure, and with it the work
	// per analysis, varies with the seed by up to about 15%; rotating
	// over several archives averages that out of a run's figures. A
	// traced run measures the first archive only.
	archivesPerRun = 6
	// archiveSeedStride separates the seeds of a run's archives, so
	// runs with nearby seeds share none.
	archiveSeedStride = 1_000_000
	// setupReps is how many times a run sets its archives up; setup_s
	// is the median.
	setupReps = 5
	// probeReps is how many rounds of the off-path probes a traced run
	// makes after its main loop.
	probeReps = 5
	// timeBlocks is how many equal time blocks an untraced run's
	// budget is cut into; timing metrics pool the fastest half.
	timeBlocks = 6
	// tracedLoopShare is the share of --seconds a traced run spends in
	// its main loop; the probes follow.
	tracedLoopShare = 0.6
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "exp1", "workload: exp1 or exp1-live")
	seed := flag.Int64("seed", 42, "seed the workload is generated from")
	seconds := flag.Int("seconds", 10, "seconds the run measures")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		flag.Usage()
		return 2
	}
	traced := *traceFlag == 1
	declared, err := declaredMetrics("BENCHMARK.json", traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := readEnvironment(w.name, *seed, *seconds, traced)
	env.print()

	archives := archivesPerRun
	if traced {
		archives = 1
	}
	b, err := newBench(w, *seed, archives)
	if err != nil {
		// A set-up that cannot be reproduced, or a reference analysis
		// that fails, is a failed check like any other.
		fmt.Println("checks: 1 attempted, 1 failed")
		fmt.Println("  FAILED:", err)
		return printResult(false, 1, 1, nil)
	}
	vals := map[string]float64{}
	pace0 := hostPace()
	runtime.GC()
	budget := time.Duration(*seconds) * time.Second
	if traced {
		b.runTraced(budget, vals)
	} else {
		b.runUntraced(budget, vals)
	}
	fmt.Printf("host pace: %.3f ms before the run, %.3f ms after (a fixed sha256 loop; in no metric)\n", pace0, hostPace())

	b.printChecks()
	metrics := map[string]result{}
	var missing []string
	fmt.Println("metrics:")
	for _, m := range declared {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run whose analyses failed leaves a metric
			// unmeasured; it still reports its checks below.
			missing = append(missing, m.Name)
			continue
		}
		def := metricDefs[m.Name]
		if def.unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %s here, %s in BENCHMARK.json\n", m.Name, def.unit, m.Unit)
			return 1
		}
		fmt.Printf("  %-30s %14.6g %-6s %-9s %s\n", m.Name, v, m.Unit, def.layer, def.help)
		metrics[m.Name] = result{Value: v, Unit: m.Unit}
	}
	if traced {
		b.printSpans()
		b.writeSpans(env)
	}
	if len(missing) > 0 {
		fmt.Printf("not measured: %v\n", missing)
	}
	return printResult(b.c.failed == 0 && len(missing) == 0, b.c.attempted, b.c.failed, metrics)
}

// printResult prints the result line, the last line of standard output,
// and returns the exit code: 0 if the run is correct, 1 if not.
func printResult(correct bool, attempted, failed int, metrics map[string]result) int {
	if metrics == nil {
		metrics = map[string]result{}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]result `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// declared is a metric as BENCHMARK.json lists it.
type declared struct{ Name, Unit string }

type result struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declaredMetrics reads the metric list the run must report from the
// benchmark's manifest, so the program and the manifest cannot drift.
func declaredMetrics(path string, traced bool) ([]declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the manifest (run from the repository root): %w", err)
	}
	var m struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	for _, d := range list {
		if _, ok := metricDefs[d.Name]; !ok {
			return nil, fmt.Errorf("%s declares metric %s, which perfbench does not define", path, d.Name)
		}
	}
	return list, nil
}

// subject is one archive of a run with its reference analysis, which
// every other analysis of the archive must reproduce.
type subject struct {
	in   *input
	ref  *outcome
	refH [3]string
}

// bench is one run's state: the workload, its archives, and the checks
// made. A traced run measures the first archive only.
type bench struct {
	w        workload
	subjects []*subject
	setups   []float64
	c        checker
	tr       *tracer
	// plain and traced hold the walls of a traced run's interleaved
	// untraced and traced analyses.
	plain, traced []float64
	live          []*outcome // live analyses of a traced run
}

// newBench sets the workload's archives up setupReps times, checks
// that every setup writes the same archives, and makes each archive's
// reference analysis: a post-mortem analysis, untimed. Archive k is
// generated from seed + k*archiveSeedStride, so archive 0 is the one
// the seed names.
func newBench(w workload, seed int64, archives int) (*bench, error) {
	b := &bench{w: w}
	var ins []*input
	var digests []string // the first setup's, per archive
	for i := 0; i < setupReps; i++ {
		ins = nil
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < archives; k++ {
			in, err := setup(w, seed+int64(k)*archiveSeedStride)
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		for k, in := range ins {
			if err := in.prepare(); err != nil {
				return nil, fmt.Errorf("preparing %s: %w", w.name, err)
			}
			if i == 0 {
				digests = append(digests, in.digest)
			} else if in.digest != digests[k] {
				return nil, fmt.Errorf("setup %d wrote archive %d as %s, setup 1 as %s", i+1, k, in.digest, digests[k])
			}
		}
	}
	for k, in := range ins {
		s := &subject{in: in}
		b.subjects = append(b.subjects, s)
		ref, err := analyzePostMortem(s.in, nil, 0, "analysis")
		if err != nil {
			return nil, fmt.Errorf("reference analysis of archive %d: %w", k, err)
		}
		if ref.events != s.in.events {
			return nil, fmt.Errorf("reference analysis of archive %d swept %d events, archive holds %d", k, ref.events, s.in.events)
		}
		s.ref, s.refH = ref, ref.hashes()
	}
	return b, nil
}

// checker counts checked operations and keeps the first failures.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) expect(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 10 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// analysis checks one analysis against the reference: no error, every
// archive event analyzed, identical artifacts.
func (b *bench) analysis(what string, s *subject, o *outcome, err error) bool {
	switch {
	case err != nil:
		return b.c.expect(false, "%s: %v", what, err)
	case o.events != s.in.events:
		return b.c.expect(false, "%s: analyzed %d events, archive holds %d", what, o.events, s.in.events)
	}
	h := o.hashes()
	return b.c.expect(h == s.refH, "%s: artifacts %v differ from the reference's %v", what, h, s.refH)
}

// runUntraced is the end-to-end measurement: analyses back to back
// until the budget is spent, each checked, with allocation read from
// MemStats around it. The loop ends with the budget whether or not any
// analysis passed its checks, and at the first error; only analyses
// that pass are measured. The budget is cut into timeBlocks equal blocks,
// and the timing metrics pool the analyses of the fastest half of the
// blocks (lowest median). Load from outside the program, such as other
// processes on a shared host, only ever slows analyses down, so the
// least-disturbed half of the run is the steadiest estimate of the
// program's own speed: a disturbance has to cover more than half the
// run to move it.
func (b *bench) runUntraced(budget time.Duration, vals map[string]float64) {
	type sample struct{ wall, finalize, events float64 }
	var blocks [timeBlocks][]sample
	var allocB, mallocs, all []float64
	n := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := b.subjects[i%len(b.subjects)]
		o, err := analyze(b.w, s.in, nil, 0, "analysis")
		runtime.ReadMemStats(&m1)
		if !b.analysis("analysis", s, o, err) {
			if err != nil {
				break
			}
			continue
		}
		blk := min(int(time.Since(start)*timeBlocks/budget), timeBlocks-1)
		blocks[blk] = append(blocks[blk], sample{o.wall.Seconds(), o.finalize.Seconds(), float64(o.events)})
		all = append(all, o.wall.Seconds())
		allocB = append(allocB, float64(m1.TotalAlloc-m0.TotalAlloc))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		n++
	}
	vals["setup_s"] = quantile(b.setups, 0.5)
	if n == 0 {
		fmt.Printf("samples: no analysis passed its checks; %d checked, %d failed (failed_frac %g)\n",
			b.c.attempted, b.c.failed, float64(b.c.failed)/float64(b.c.attempted))
		return
	}
	type ranked struct {
		median float64
		s      []sample
	}
	var rs []ranked
	for _, bl := range blocks {
		if len(bl) > 0 {
			ws := make([]float64, len(bl))
			for i, x := range bl {
				ws[i] = x.wall
			}
			rs = append(rs, ranked{quantile(ws, 0.5), bl})
		}
	}
	slices.SortFunc(rs, func(a, b ranked) int { return cmp.Compare(a.median, b.median) })
	var walls, finals, rates, medians []float64
	for k, r := range rs {
		medians = append(medians, r.median)
		if k >= (len(rs)+1)/2 {
			continue
		}
		for _, x := range r.s {
			walls = append(walls, x.wall)
			finals = append(finals, x.finalize)
			rates = append(rates, x.events/x.wall)
		}
	}
	fmt.Printf("samples: %d analyses in %d time blocks with medians %.4f s; %d analyses in the fastest half; %d checked, %d failed (failed_frac %g)\n",
		n, len(rs), medians, len(walls), b.c.attempted, b.c.failed, float64(b.c.failed)/float64(b.c.attempted))
	fmt.Printf("all analyses, unfiltered: analysis_s_p50 %.6f s, analysis_s_p90 %.6f s; fastest half: %.6f s, %.6f s\n",
		quantile(all, 0.5), quantile(all, 0.9), quantile(walls, 0.5), quantile(walls, 0.9))
	vals["analysis_s_p50"] = quantile(walls, 0.5)
	vals["analysis_s_p90"] = quantile(walls, 0.9)
	vals["events_per_s"] = quantile(rates, 0.5)
	vals["alloc_mb"] = sum(allocB) / float64(n) / 1e6
	vals["allocs"] = sum(mallocs) / float64(n)
	vals["finalize_s_p50"] = quantile(finals, 0.5)
}

// runTraced alternates untraced and traced analyses on the workload's
// path for tracedLoopShare of the budget (at least two of each), then
// makes probeReps rounds of probes: the layers off the workload's path
// and the direct calls (sync, phase detection, chunk decode,
// single-threaded replay). The loop ends with its share of the budget
// whether or not any analysis passed, and at the first error.
func (b *bench) runTraced(budget time.Duration, vals map[string]float64) {
	b.tr = newTracer()
	s := b.subjects[0]
	aid := 0
	loopEnd := time.Now().Add(time.Duration(float64(budget) * tracedLoopShare))
	for i := 0; i < 4 || time.Now().Before(loopEnd); i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = b.tr
		}
		aid++
		o, err := analyze(b.w, s.in, tr, aid, "analysis")
		if !b.analysis("analysis", s, o, err) {
			if err != nil {
				return
			}
			continue
		}
		if tr == nil {
			b.plain = append(b.plain, o.wall.Seconds())
		} else {
			b.traced = append(b.traced, o.wall.Seconds())
			if b.w.live {
				b.live = append(b.live, o)
			}
		}
	}
	other := workload{name: "off-path", live: !b.w.live}
	for r := 0; r < probeReps; r++ {
		aid++
		b.probeRound(aid, r)
		aid++
		o, err := analyze(other, s.in, b.tr, aid, "probe.analysis")
		if b.analysis("off-path analysis", s, o, err) && other.live {
			b.live = append(b.live, o)
		}
	}
	fmt.Printf("samples: %d untraced and %d traced analyses, %d probe rounds; %d checks, %d failed (failed_frac %g)\n",
		len(b.plain), len(b.traced), probeReps, b.c.attempted, b.c.failed, float64(b.c.failed)/float64(b.c.attempted))
	b.perLayer(vals)
}

// probeRound makes one round of direct calls into single layers, each
// checked against the reference analysis.
func (b *bench) probeRound(aid, round int) {
	tr, in, ref := b.tr, b.subjects[0].in, b.subjects[0].ref.res
	sp := tr.begin(aid, 0, "vclock.corrections", true)
	corrs, err := replay.BuildCorrections(in.traces, vclock.Hierarchical)
	tr.end(sp)
	b.c.expect(err == nil && slices.Equal(corrs, ref.Corrections),
		"vclock.corrections: BuildCorrections disagrees with the analysis's corrections (err %v)", err)

	phases, period, err := detectProbe(tr, aid, in.traces, ref.Corrections)
	wantPhases, wantPeriod := resultPhases(ref)
	b.c.expect(err == nil && phases == wantPhases && period == wantPeriod,
		"phase.detect: rebuilt op logs give %d phases, period %d; the analysis found %d, period %d (err %v)",
		phases, period, wantPhases, wantPeriod, err)

	n, err := chunkDecodeProbe(tr, aid, in)
	b.c.expect(err == nil && n == in.events, "trace.chunk_decode: %d events, archive holds %d (err %v)", n, in.events, err)
	n, err = decodeProbe(tr, aid, in)
	b.c.expect(err == nil && n == in.events, "trace.decode: %d events, archive holds %d (err %v)", n, in.events, err)

	// Single-threaded against default parallelism, alternating which
	// goes first.
	for k := 0; k < 2; k++ {
		name, procs := "replay.analyze.parallel", 0
		if (k+round)%2 == 1 {
			name, procs = "replay.analyze.gomaxprocs1", 1
		}
		prev := runtime.GOMAXPROCS(procs)
		sp := tr.begin(aid, 0, name, false)
		res, err := replay.Analyze(in.traces, replay.Config{Scheme: vclock.Hierarchical, Title: in.title})
		tr.end(sp)
		runtime.GOMAXPROCS(prev)
		b.c.expect(err == nil && res.Messages == ref.Messages && res.Collectives == ref.Collectives &&
			res.Violations == ref.Violations, "%s: counts differ from the reference (err %v)", name, err)
	}
}

// chunkDecodeProbe runs standalone chunk decoders over the live feed's
// chunk sequence, discarding events as the live engine does, and
// returns the number of events decoded.
func chunkDecodeProbe(tr *tracer, aid int, in *input) (int, error) {
	sp := tr.begin(aid, 0, "trace.chunk_decode", true)
	defer tr.end(sp)
	intern := trace.NewInterner()
	decs := make([]*trace.ChunkDecoder, len(in.blobs))
	for r := range decs {
		decs[r] = trace.NewChunkDecoder(intern)
		decs[r].DiscardEvents = true
	}
	n := 0
	for _, c := range in.chunks {
		evs, err := decs[c.rank].Feed(c.data)
		if err != nil {
			return n, err
		}
		n += len(evs)
	}
	for _, d := range decs {
		if _, err := d.Finish(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// decodeProbe decodes every whole blob and returns the events decoded.
func decodeProbe(tr *tracer, aid int, in *input) (int, error) {
	sp := tr.begin(aid, 0, "trace.decode", false)
	defer tr.end(sp)
	n := 0
	for _, blob := range in.blobs {
		t, err := trace.DecodeBytes(blob)
		if err != nil {
			return n, err
		}
		n += len(t.Events)
	}
	return n, nil
}

// perLayer derives the per-layer metrics from the recorded spans.
func (b *bench) perLayer(vals map[string]float64) {
	tr, in, ref := b.tr, b.subjects[0].in, b.subjects[0].ref
	self := tr.selfTimes()
	dur := func(name string) float64 {
		var xs []float64
		for _, s := range tr.byName(name) {
			xs = append(xs, s.dur())
		}
		return quantile(xs, 0.5)
	}
	allocMB := func(name string) float64 {
		var xs []float64
		for _, s := range tr.byName(name) {
			xs = append(xs, float64(s.AllocBytes))
		}
		return quantile(xs, 0.5) / 1e6
	}
	var remainder, coverage []float64
	for _, s := range tr.byName("analysis") {
		remainder = append(remainder, self[s.ID])
		coverage = append(coverage, 1-self[s.ID]/s.dur())
	}
	var analyzeSelf []float64
	for _, s := range tr.byName("replay.analyze") {
		analyzeSelf = append(analyzeSelf, self[s.ID])
	}
	var windows, streamEvents []float64
	for _, o := range b.live {
		windows = append(windows, float64(o.windows))
		streamEvents = append(streamEvents, float64(o.streamEvents))
	}
	var external int64
	for _, x := range ref.res.ReplayExternalBytes {
		external += x
	}
	phases, period := resultPhases(ref.res)

	vals["ingest.load_s"] = dur("ingest.load")
	vals["ingest.mb_per_s"] = float64(in.bytes) / 1e6 / dur("ingest.load")
	vals["ingest.alloc_mb"] = allocMB("ingest.load")
	vals["vclock.corrections_s"] = dur("vclock.corrections")
	vals["replay.analyze_s"] = dur("replay.analyze")
	vals["replay.analyze_alloc_mb"] = allocMB("replay.analyze")
	vals["replay.analyze_self_s"] = quantile(analyzeSelf, 0.5)
	vals["replay.sweep_s"] = dur("replay.sweep")
	vals["replay.pattern_search_s"] = dur("replay.pattern_search")
	vals["replay.events"] = float64(ref.events)
	vals["replay.messages"] = float64(ref.res.Messages)
	vals["replay.collectives"] = float64(ref.res.Collectives)
	vals["replay.violations"] = float64(ref.res.Violations)
	vals["replay.external_kib"] = float64(external) / 1024
	vals["replay.analyze_s_gomaxprocs1"] = dur("replay.analyze.gomaxprocs1")
	vals["replay.parallel_speedup"] = dur("replay.analyze.gomaxprocs1") / dur("replay.analyze.parallel")
	vals["phase.detect_s"] = dur("phase.detect")
	vals["phase.detect_alloc_mb"] = allocMB("phase.detect")
	vals["phase.phases"] = float64(phases)
	vals["phase.period"] = float64(period)
	for i, n := range artifactNames {
		vals[n+".write_s"] = dur(n + ".write")
		vals[n+".bytes"] = float64(len(ref.art[i]))
	}
	vals["live.feed_s"] = dur("live.feed")
	vals["live.feed_alloc_mb"] = allocMB("live.feed")
	vals["live.finalize_s"] = dur("live.finalize")
	vals["live.finalize_alloc_mb"] = allocMB("live.finalize")
	vals["live.windows"] = quantile(windows, 0.5)
	vals["live.stream_events"] = quantile(streamEvents, 0.5)
	vals["trace.chunk_decode_s"] = dur("trace.chunk_decode")
	vals["trace.chunk_decode_alloc_mb"] = allocMB("trace.chunk_decode")
	vals["trace.decode_s"] = dur("trace.decode")
	vals["analysis.untraced_s_p50"] = quantile(b.plain, 0.5)
	vals["analysis.traced_s_p50"] = quantile(b.traced, 0.5)
	vals["trace_overhead"] = quantile(b.traced, 0.5) / quantile(b.plain, 0.5)
	vals["analysis.remainder_s"] = quantile(remainder, 0.5)
	vals["analysis.coverage"] = quantile(coverage, 0.5)
}

func (e environment) print() {
	data, _ := json.Marshal(e) // a struct of strings and numbers always marshals
	fmt.Println("environment:", string(data))
}

func (b *bench) printChecks() {
	for k, s := range b.subjects {
		in, ref := s.in, s.ref
		phases, period := resultPhases(ref.res)
		fmt.Printf("archive %d (seed %d): sha256 %s, %d ranks, %d events, %d bytes, %d live chunks of %d KiB\n",
			k, in.exp.Seed, in.digest, len(in.blobs), in.events, in.bytes, len(in.chunks), chunkSize>>10)
		fmt.Printf("  reference: events=%d messages=%d collectives=%d phases=%d period=%d violations=%d\n",
			ref.events, ref.res.Messages, ref.res.Collectives, phases, period, ref.res.Violations)
		for i, n := range artifactNames {
			fmt.Printf("  reference %s: %d bytes, sha256 %s\n", n, len(ref.art[i]), s.refH[i])
		}
	}
	fmt.Printf("setup_s samples: %v\n", b.setups)
	fmt.Printf("checks: %d attempted, %d failed\n", b.c.attempted, b.c.failed)
	for _, n := range b.c.notes {
		fmt.Println("  FAILED:", n)
	}
}

// printSpans prints, per span name in first-seen order, the count and
// the medians of duration, self time and allocation.
func (b *bench) printSpans() {
	self := b.tr.selfTimes()
	var order []string
	seen := map[string]bool{}
	for _, s := range b.tr.spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			order = append(order, s.Name)
		}
	}
	fmt.Println("spans (medians):")
	fmt.Printf("  %-28s %6s %12s %12s %10s\n", "name", "count", "dur_s", "self_s", "alloc_mb")
	for _, n := range order {
		var d, sf, al []float64
		for _, s := range b.tr.byName(n) {
			d = append(d, s.dur())
			sf = append(sf, self[s.ID])
			if s.AllocBytes >= 0 {
				al = append(al, float64(s.AllocBytes)/1e6)
			}
		}
		alloc := "-"
		if len(al) > 0 {
			alloc = fmt.Sprintf("%.3f", quantile(al, 0.5))
		}
		fmt.Printf("  %-28s %6d %12.6f %12.6f %10s\n", n, len(d), quantile(d, 0.5), quantile(sf, 0.5), alloc)
	}
}

// writeSpans writes every span of the run, with the environment, under
// the build directory.
func (b *bench) writeSpans(env environment) {
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", env.Workload, env.Seed))
	data, err := json.Marshal(struct {
		Env   environment `json:"environment"`
		Spans []span      `json:"spans"`
	}{env, b.tr.spans})
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		return
	}
	fmt.Printf("spans: %d written to %s\n", len(b.tr.spans), path)
}

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
