package replay

import (
	"testing"

	"metascope/internal/trace"
)

// TestClosedRankLogIsOneBlock: an in-memory trace's log is one closed
// block aliasing the trace's event slice — no copy — that a full sweep
// reads in place and never releases. Its receive count is exact up
// front; an open (live) log reports not-countable instead, since
// counting would wait on the stream.
func TestClosedRankLogIsOneBlock(t *testing.T) {
	tr := bigPingPong(3000)[1]
	n := len(tr.Events)
	lg := newClosedRankLog(tr.Events)
	if len(lg.blocks) != 1 || len(lg.blocks[0]) != n || &lg.blocks[0][0] != &tr.Events[0] {
		t.Fatalf("closed log holds %d block(s), want one block aliasing the %d trace events", len(lg.blocks), n)
	}

	sc := newSweepCursor(lg)
	swept := 0
	for i := 0; sc.at(i); i++ {
		sc.release(i)
		if ev := sc.ev(i); ev != &tr.Events[i] {
			t.Fatalf("event %d not read in place from the trace", i)
		}
		swept++
	}
	if swept != n {
		t.Fatalf("swept %d events, trace has %d", swept, n)
	}
	if resident, peak := lg.residentEvents(); resident != n || peak != n || lg.blocks[0] == nil {
		t.Errorf("after a full sweep: resident %d, peak %d, block released %v; want %d, %d, false",
			resident, peak, lg.blocks[0] == nil, n, n)
	}

	want := 0
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KindRecv {
			want++
		}
	}
	if got, ok := lg.recvCount(); !ok || got != want {
		t.Errorf("closed log recvCount = (%d, %v), want (%d, true)", got, ok, want)
	}

	open := newRankLog()
	open.append(tr.Events)
	if _, ok := open.recvCount(); ok {
		t.Error("open log reports a receive count")
	}
}
