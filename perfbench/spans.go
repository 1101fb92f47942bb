package main

import (
	"runtime"
	"sort"
	"time"

	"metascope/internal/obs"
)

// span is one timed call into a layer. Spans of one analysis (or one
// probe round) share Analysis; Parent 0 marks a root. Times are
// seconds since the run started.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Analysis int     `json:"analysis"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	// AllocBytes is the heap allocated between start and end by the
	// whole process (MemStats.TotalAlloc delta); -1 when not measured.
	// Goroutines the call leaves running, such as a live session's
	// replay workers during a feed, are attributed to it.
	AllocBytes int64 `json:"alloc_bytes"`

	alloc  bool
	alloc0 uint64
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// begin opens a span and returns its id. alloc measures heap bytes
// allocated inside it; the MemStats read happens outside the timed
// interval.
func (t *tracer) begin(aid, parent int, name string, alloc bool) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Parent: parent, Analysis: aid, Name: name, AllocBytes: -1, alloc: alloc}
	if alloc {
		s.alloc0 = totalAlloc()
	}
	s.Start = time.Since(t.t0).Seconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	if s.alloc {
		s.AllocBytes = int64(totalAlloc() - s.alloc0)
	}
}

// obsPhases turns the program's own sync, replay and pattern-search
// phase timings (recorded by replay.Analyze on rec) into child spans
// of the replay.analyze span parent. The program reports durations
// only, so the children are placed in program order: sync at the
// parent's start, the sweep and pattern search back to back ending at
// the parent's end.
func (t *tracer) obsPhases(aid, parent int, rec *obs.Recorder) {
	if t == nil || rec == nil {
		return
	}
	d := map[string]float64{}
	for _, p := range rec.Phases.Breakdown() {
		if p.Depth == 0 {
			d[p.Name] += p.Total.Seconds()
		}
	}
	ps := t.spans[parent-1]
	add := func(name string, start, end float64) {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Analysis: aid,
			Name: name, Start: start, End: end, AllocBytes: -1})
	}
	add("replay.sync", ps.Start, ps.Start+d["sync"])
	add("replay.pattern_search", ps.End-d["pattern-search"], ps.End)
	add("replay.sweep", ps.End-d["pattern-search"]-d["replay"], ps.End-d["pattern-search"])
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval its children cover.
func (t *tracer) selfTimes() map[int]float64 {
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// byName returns the spans named name, in recording order.
func (t *tracer) byName(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}
