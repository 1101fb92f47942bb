package main

// metricDef describes one reported metric: its unit, the layer (module)
// it measures, and what it is. BENCHMARK.json lists which of them a run
// reports; README.md explains them.
type metricDef struct {
	unit, layer, help string
}

var metricDefs = map[string]metricDef{
	// End-to-end, from an untraced run.
	"analysis_s_p50": {"s", "pipeline", "wall time of one analysis, input available to cube, profile and phase artifacts serialized: median over the fastest half of the run's time blocks"},
	"analysis_s_p90": {"s", "pipeline", "the same: 90th percentile"},
	"events_per_s":   {"1/s", "pipeline", "trace events analyzed per second of wall time in one analysis, median over the fastest half of the time blocks"},
	"alloc_mb":       {"MB", "pipeline", "heap MB (10^6 B) allocated per analysis, mean of MemStats.TotalAlloc deltas over the run's archives"},
	"allocs":         {"count", "pipeline", "heap objects allocated per analysis, mean of MemStats.Mallocs deltas over the run's archives"},
	"finalize_s_p50": {"s", "pipeline", "wait from the last input ingested to the result (live: last FeedChunk to Finalize; post-mortem: LoadArchive return to Analyze return), median over the fastest half of the time blocks"},
	"setup_s":        {"s", "setup", "median time to simulate the runs and write the archives (live: and read the wire bytes)"},

	// Per-layer, from a traced run: medians over spans.
	"ingest.load_s":                {"s", "archive", "time inside replay.LoadArchive"},
	"ingest.mb_per_s":              {"MB/s", "archive", "archive MB loaded per second inside LoadArchive"},
	"ingest.alloc_mb":              {"MB", "archive", "heap MB allocated inside LoadArchive"},
	"vclock.corrections_s":         {"s", "vclock", "time inside replay.BuildCorrections"},
	"replay.analyze_s":             {"s", "replay", "time inside replay.Analyze"},
	"replay.analyze_alloc_mb":      {"MB", "replay", "heap MB allocated inside Analyze"},
	"replay.analyze_self_s":        {"s", "replay", "Analyze time outside its sync, replay and pattern-search phases"},
	"replay.sweep_s":               {"s", "replay", "the program's replay phase inside Analyze: the per-rank forward sweeps"},
	"replay.pattern_search_s":      {"s", "pattern", "the program's pattern-search phase: post-pass, profile fold, phase detect and fold, cube build"},
	"replay.events":                {"count", "replay", "trace events swept per analysis"},
	"replay.messages":              {"count", "replay", "point-to-point messages matched"},
	"replay.collectives":           {"count", "replay", "collective instances replayed"},
	"replay.violations":            {"count", "replay", "clock-condition violations after hierarchical sync"},
	"replay.external_kib":          {"KiB", "replay", "replay traffic crossing metahost boundaries, summed over ranks"},
	"replay.analyze_s_gomaxprocs1": {"s", "replay", "time inside Analyze at GOMAXPROCS 1"},
	"replay.parallel_speedup":      {"ratio", "replay", "Analyze time at GOMAXPROCS 1 over Analyze time at the default"},
	"phase.detect_s":               {"s", "phase", "time inside phase.Detect on op logs rebuilt from the traces"},
	"phase.detect_alloc_mb":        {"MB", "phase", "heap MB allocated inside phase.Detect"},
	"phase.phases":                 {"count", "phase", "phases detected"},
	"phase.period":                 {"count", "phase", "period of the phase sequence"},
	"cube.write_s":                 {"s", "cube", "time inside Report.Write"},
	"cube.bytes":                   {"B", "cube", "cube artifact size"},
	"profile.write_s":              {"s", "profile", "time inside Profile.WriteJSON"},
	"profile.bytes":                {"B", "profile", "profile artifact size"},
	"phase.write_s":                {"s", "phase", "time inside phase Profile.WriteJSON"},
	"phase.bytes":                  {"B", "phase", "phase artifact size"},
	"live.feed_s":                  {"s", "replay", "time inside the FeedChunk calls of one live analysis"},
	"live.feed_alloc_mb":           {"MB", "replay", "heap MB allocated while feeding, replay workers included"},
	"live.finalize_s":              {"s", "replay", "time inside Live.Finalize"},
	"live.finalize_alloc_mb":       {"MB", "replay", "heap MB allocated inside Finalize"},
	"live.windows":                 {"count", "replay", "severity windows closed by a live session"},
	"live.stream_events":           {"count", "replay", "stream events a live session emitted"},
	"trace.chunk_decode_s":         {"s", "trace", "standalone ChunkDecoders over the live chunk sequence"},
	"trace.chunk_decode_alloc_mb":  {"MB", "trace", "heap MB allocated by those decoders"},
	"trace.decode_s":               {"s", "trace", "trace.DecodeBytes over every whole rank blob"},
	"analysis.untraced_s_p50":      {"s", "pipeline", "median wall of the traced run's interleaved untraced analyses"},
	"analysis.traced_s_p50":        {"s", "pipeline", "median wall of its traced analyses"},
	"trace_overhead":               {"ratio", "pipeline", "analysis.traced_s_p50 over analysis.untraced_s_p50"},
	"analysis.remainder_s":         {"s", "pipeline", "wall time of a traced analysis that no layer span covers"},
	"analysis.coverage":            {"ratio", "pipeline", "share of a traced analysis's wall time covered by layer spans"},
}
