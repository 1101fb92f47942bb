package replay

import (
	"bytes"
	"context"
	"testing"
	"time"

	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// bigPingPong builds a 2-rank message storm large enough to span many
// v2 blocks per rank (6 events per message, default block = 4096
// events), with every receive posted early so the analysis deposits
// Late Sender mass throughout.
func bigPingPong(nmsg int) []*trace.Trace {
	ev0 := []trace.Event{enter(0, 0)}
	ev1 := []trace.Event{enter(0, 0)}
	tt := 1.0
	for i := 0; i < nmsg; i++ {
		ev1 = append(ev1, enter(tt, 2))
		ev0 = append(ev0, enter(tt+0.3, 1), send(tt+0.3, 1, int32(i%7), 128), exit(tt+0.4, 1))
		ev1 = append(ev1, recv(tt+0.5, 0, int32(i%7), 128), exit(tt+0.5, 2))
		tt += 1.0
	}
	ev0 = append(ev0, exit(tt+1, 0))
	ev1 = append(ev1, exit(tt+1, 0))
	return []*trace.Trace{synth(0, 0, ev0), synth(1, 0, ev1)}
}

// encodeBytes renders a trace in the archive encoding.
func encodeBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveBoundedResident: a feeder that throttles on Resident() against
// WindowBudget must complete with a peak resident window far below the
// full event count — the out-of-core guarantee for archives larger than
// RAM.
func TestLiveBoundedResident(t *testing.T) {
	traces := bigPingPong(4000)
	blobs := make([][]byte, len(traces))
	for i, tr := range traces {
		blobs[i] = encodeBytes(t, tr)
	}
	const budget = 6000 // events per rank; each rank holds ~12k
	l, err := NewLive(LiveConfig{
		Config:       Config{Scheme: vclock.FlatSingle, Title: "live-bounded"},
		Ranks:        len(traces),
		WindowSec:    5,
		EmitEvery:    time.Millisecond,
		WindowBudget: budget,
		OnEvent:      func(StreamEvent) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int, len(blobs))
	for {
		progressed := false
		for r := range blobs {
			if offs[r] >= len(blobs[r]) {
				continue
			}
			if res, _ := l.Resident(r); res > budget {
				continue // throttle: let the sweep drain this rank first
			}
			end := offs[r] + 4096
			if end > len(blobs[r]) {
				end = len(blobs[r])
			}
			if err := l.FeedChunk(r, blobs[r][offs[r]:end]); err != nil {
				t.Fatalf("feed rank %d: %v", r, err)
			}
			offs[r] = end
			progressed = true
		}
		done := true
		for r := range blobs {
			if offs[r] < len(blobs[r]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			time.Sleep(time.Millisecond) // all ranks over budget: wait for the sweep
		}
	}
	res, err := l.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 4000; res.Messages != want {
		t.Errorf("analyzed %d messages, fed %d", res.Messages, want)
	}
	peakSum := 0
	for r := range blobs {
		_, peak := l.Resident(r)
		if peak >= len(traces[r].Events) {
			t.Errorf("rank %d peak resident %d >= full trace %d: window never released",
				r, peak, len(traces[r].Events))
		}
		peakSum += peak
	}
	st := l.Status()
	if st.MaxResidentEvents != peakSum {
		t.Errorf("status MaxResidentEvents %d, sum of rank peaks %d", st.MaxResidentEvents, peakSum)
	}
}
