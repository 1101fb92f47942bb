package replay

import (
	"fmt"
	"sync"

	"metascope/internal/trace"
)

// liveLogStride is the events-per-block granularity of an appending
// (live-session) rank log. Each block is one allocation, so releasing
// the swept prefix actually returns memory; 4096 events keeps the
// bookkeeping to one block handoff per few hundred KiB of trace.
const liveLogStride = 1 << 12

// rankLog is the append-only event log one analysis process sweeps. It
// has two modes: post-mortem analysis wraps the fully loaded trace in a
// closed log, and a live session appends events as upload chunks decode
// and closes the log when the rank's stream finishes. The sweep never
// sees a difference beyond *when* events become visible, which is the
// whole trick behind byte-identical streaming results: the worker's
// event order, and therefore every accumulator's addition order, is the
// trace order either way.
//
// Every log stores its events in fixed-stride blocks. An appending log
// gives each block its own allocation, so releaseBefore can free the
// already-swept prefix — the bounded-memory window that lets a live
// upload larger than RAM stream through one analysis. An in-memory
// trace is one closed block spanning the whole event slice, which the
// sweep's frontier never passes, so nothing of it is released.
type rankLog struct {
	mu      sync.Mutex
	cond    sync.Cond
	closed  bool
	aborted bool

	blocks [][]trace.Event
	stride int
	n      int // events visible to the sweep

	// Memory accounting (events, not bytes: one Event is a fixed-size
	// struct). resident counts events currently held in block storage;
	// maxResident is the high-water mark a bounded-memory run pins.
	resident    int
	maxResident int

	// Raw (uncorrected) first/last event times, tracked so the profile
	// axis can be derived without re-reading events — the trace they
	// came from may hold no event slice at all.
	haveTime            bool
	firstTime, lastTime float64
}

func newRankLog() *rankLog {
	lg := &rankLog{stride: liveLogStride}
	lg.cond.L = &lg.mu
	return lg
}

// newClosedRankLog wraps an already complete event slice (post-mortem
// analysis) as one block, without copying.
func newClosedRankLog(events []trace.Event) *rankLog {
	lg := newRankLog()
	lg.blocks = [][]trace.Event{events}
	lg.stride = max(len(events), 1)
	lg.n = len(events)
	lg.resident = len(events)
	lg.maxResident = len(events)
	if len(events) > 0 {
		lg.haveTime = true
		lg.firstTime = events[0].Time
		lg.lastTime = events[len(events)-1].Time
	}
	lg.closed = true
	return lg
}

// append publishes more events and wakes the sweeping worker. Events
// are copied into fixed-stride blocks so the swept prefix can be
// released block by block.
func (lg *rankLog) append(events []trace.Event) {
	if len(events) == 0 {
		return
	}
	lg.mu.Lock()
	if !lg.haveTime {
		lg.haveTime = true
		lg.firstTime = events[0].Time
	}
	lg.lastTime = events[len(events)-1].Time
	for len(events) > 0 {
		k := lg.n / lg.stride
		off := lg.n % lg.stride
		if k == len(lg.blocks) {
			lg.blocks = append(lg.blocks, make([]trace.Event, 0, lg.stride))
		}
		blk := lg.blocks[k]
		take := lg.stride - off
		if take > len(events) {
			take = len(events)
		}
		lg.blocks[k] = append(blk, events[:take]...)
		events = events[take:]
		lg.n += take
		lg.resident += take
	}
	if lg.resident > lg.maxResident {
		lg.maxResident = lg.resident
	}
	lg.mu.Unlock()
	lg.cond.Broadcast()
}

// close marks the log complete: no more events will arrive.
func (lg *rankLog) close() {
	lg.mu.Lock()
	lg.closed = true
	lg.mu.Unlock()
	lg.cond.Broadcast()
}

// abort wakes a blocked sweep so a cancelled analysis unwinds.
func (lg *rankLog) abort() {
	lg.mu.Lock()
	lg.aborted = true
	lg.mu.Unlock()
	lg.cond.Broadcast()
}

// wait blocks until the log holds more than have events, is closed, or
// is aborted, and returns the visible count and flags.
func (lg *rankLog) wait(have int) (n int, closed, aborted bool) {
	lg.mu.Lock()
	for lg.n == have && !lg.closed && !lg.aborted {
		lg.cond.Wait()
	}
	n, closed, aborted = lg.n, lg.closed, lg.aborted
	lg.mu.Unlock()
	return n, closed, aborted
}

// recvCount counts the Recv events of a closed log whose events are
// all resident — every post-mortem log, and a live log whose stream
// ended before its sweep began — which lets the worker pre-size its
// receive log. Any other log returns ok=false: an open one would have
// to wait for events still in flight, and a released prefix can no
// longer be counted.
func (lg *rankLog) recvCount() (int, bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if !lg.closed || lg.resident != lg.n {
		return 0, false
	}
	nrecv := 0
	for _, blk := range lg.blocks {
		for i := range blk {
			if blk[i].Kind == trace.KindRecv {
				nrecv++
			}
		}
	}
	return nrecv, true
}

// bounds returns the raw first/last event times the log has seen.
// Valid for a closed log immediately, and for a live log once every
// chunk was appended; the analyzer reads it after the sweep.
func (lg *rankLog) bounds() (first, last float64, ok bool) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.firstTime, lg.lastTime, lg.haveTime
}

// residentEvents returns the current and peak number of events held in
// storage.
func (lg *rankLog) residentEvents() (resident, peak int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.resident, lg.maxResident
}

// window returns the block slice containing event i plus the global
// index of its first element. The returned slice is stable: a live
// append extends the same backing array without moving published
// elements.
func (lg *rankLog) window(i int) ([]trace.Event, int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	k := i / lg.stride
	blk := lg.blocks[k]
	if blk == nil {
		// The single-reader discipline (release only below the sweep
		// frontier) makes this unreachable; a hit is a replay bug.
		panic(fmt.Sprintf("replay: rank log block %d used after release", k))
	}
	return blk, k * lg.stride
}

// releaseBefore frees every block that lies entirely below event index
// i. Only the sweeping worker calls it, and only with its own frontier,
// so no released block can still be referenced.
func (lg *rankLog) releaseBefore(i int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	limit := i / lg.stride
	if limit > len(lg.blocks) {
		limit = len(lg.blocks)
	}
	for k := 0; k < limit; k++ {
		if lg.blocks[k] != nil {
			lg.resident -= len(lg.blocks[k])
			lg.blocks[k] = nil
		}
	}
}

// sweepCursor is one worker's forward view of a rankLog. at(i) reports
// whether event i exists, blocking while it may still arrive; ev(i)
// returns the event itself, caching one block so the sequential sweep
// touches the log's lock once per block, not once per event.
type sweepCursor struct {
	lg      *rankLog
	blk     []trace.Event
	base    int // global index of blk[0]
	n       int // visible-event count last observed
	closed  bool
	aborted bool

	stride int
	next   int // first event index past the block the frontier is in
}

func newSweepCursor(lg *rankLog) *sweepCursor {
	sc := &sweepCursor{lg: lg, stride: lg.stride, next: lg.stride, base: -1}
	lg.mu.Lock()
	sc.n, sc.closed, sc.aborted = lg.n, lg.closed, lg.aborted
	lg.mu.Unlock()
	return sc
}

// at blocks until event i is visible and returns true, or returns
// false when the log ended (closed before reaching i, or aborted).
func (sc *sweepCursor) at(i int) bool {
	for i >= sc.n {
		if sc.closed || sc.aborted {
			return false
		}
		sc.n, sc.closed, sc.aborted = sc.lg.wait(sc.n)
	}
	return true
}

// ev returns event i, which at(i) must have admitted.
func (sc *sweepCursor) ev(i int) *trace.Event {
	if off := i - sc.base; off >= 0 && off < len(sc.blk) {
		return &sc.blk[off]
	}
	sc.blk, sc.base = sc.lg.window(i)
	return &sc.blk[i-sc.base]
}

// release frees the log's blocks below the sweep frontier i. Called
// once per event; it touches the log only when the frontier crosses a
// block boundary, which a whole-trace block never has.
func (sc *sweepCursor) release(i int) {
	if i >= sc.next {
		sc.next = (i/sc.stride + 1) * sc.stride
		sc.lg.releaseBefore(i)
	}
}
