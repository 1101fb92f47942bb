package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"metascope/internal/vclock"
)

// seedTraces returns example traces covering every event kind, the
// basis of the fuzz seed corpora in both encodings.
func seedTraces() []*Trace {
	return []*Trace{
		sampleTrace(),
		{Loc: Location{MetahostName: "tiny"}},
		{
			Loc: Location{Rank: 1, Metahost: 2, MetahostName: "FZJ", Node: 3, CPU: 0},
			Sync: SyncData{
				FlatStart: vclock.Measurement{Local: 0, Offset: 0.5, Err: 1e-6},
				FlatEnd:   vclock.Measurement{Local: 9, Offset: 0.6, Err: 1e-6},
			},
			Regions: []Region{{ID: 0, Name: "main", Kind: RegionUser}},
			Comms:   []CommDef{{ID: 0, Ranks: []int32{0, 1}}},
			Events: []Event{
				{Kind: KindEnter, Time: 0, Region: 0},
				{Kind: KindSend, Time: 1, Comm: 0, Peer: 1, Tag: -3, Bytes: 1 << 20},
				{Kind: KindRecv, Time: 2, Comm: 0, Peer: 1, Tag: 9, Bytes: 16},
				{Kind: KindCollExit, Time: 3, Comm: 0, Coll: CollAllreduce, Root: -1, Bytes: 8},
				{Kind: KindExit, Time: 4, Region: 0},
			},
		},
	}
}

// encodedV2Seeds returns the seed traces in the v2 block encoding, with
// a deliberately tiny block size on the last one so the corpus carries
// a multi-block image.
func encodedV2Seeds(t testing.TB) [][]byte {
	t.Helper()
	seeds := seedTraces()
	var out [][]byte
	for i, tr := range seeds {
		bs := defaultBlockSize
		if i == len(seeds)-1 {
			bs = 2
		}
		var buf bytes.Buffer
		if err := tr.encodeV2(&buf, bs); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzDecode feeds arbitrary bytes to the slice decoder. Whatever the
// input, Decode must return cleanly — no panics, no runaway
// allocations from corrupt headers — and anything it accepts must
// survive a re-encode/re-decode round trip.
func FuzzDecode(f *testing.F) {
	for _, seed := range frozenV1Seeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("MSCP"))
	f.Add([]byte("MSCP\x01"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		again, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if len(again.Events) != len(tr.Events) || len(again.Regions) != len(tr.Regions) {
			t.Fatalf("round trip changed shape: %d/%d events, %d/%d regions",
				len(tr.Events), len(again.Events), len(tr.Regions), len(again.Regions))
		}
	})
}

// eventBitEqual compares two events with bit-exact time comparison.
func eventBitEqual(a, b Event) bool {
	return a.Kind == b.Kind && math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		a.Region == b.Region && a.Comm == b.Comm && a.Peer == b.Peer &&
		a.Tag == b.Tag && a.Bytes == b.Bytes && a.Coll == b.Coll && a.Root == b.Root
}

// traceBitEqual compares two traces field by field, with bit-exact
// float comparison so that NaN time stamps and offsets — which defeat
// reflect.DeepEqual — still compare equal to themselves. A nil and an
// empty slice are equal.
func traceBitEqual(a, b *Trace) bool {
	if a.Loc != b.Loc || len(a.Regions) != len(b.Regions) ||
		len(a.Comms) != len(b.Comms) || len(a.Events) != len(b.Events) {
		return false
	}
	sa, sb := &a.Sync, &b.Sync
	if sa.GlobalMasterRank != sb.GlobalMasterRank || sa.LocalMasterRank != sb.LocalMasterRank ||
		sa.SharedNodeClock != sb.SharedNodeClock {
		return false
	}
	ma := []vclock.Measurement{sa.FlatStart, sa.FlatEnd, sa.LocalStart, sa.LocalEnd, sa.MasterStart, sa.MasterEnd}
	mb := []vclock.Measurement{sb.FlatStart, sb.FlatEnd, sb.LocalStart, sb.LocalEnd, sb.MasterStart, sb.MasterEnd}
	for i := range ma {
		for _, p := range [][2]float64{{ma[i].Local, mb[i].Local}, {ma[i].Offset, mb[i].Offset}, {ma[i].Err, mb[i].Err}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	for i := range a.Regions {
		if a.Regions[i] != b.Regions[i] {
			return false
		}
	}
	for i := range a.Comms {
		ca, cb := a.Comms[i], b.Comms[i]
		if ca.ID != cb.ID || len(ca.Ranks) != len(cb.Ranks) {
			return false
		}
		for j := range ca.Ranks {
			if ca.Ranks[j] != cb.Ranks[j] {
				return false
			}
		}
	}
	for i := range a.Events {
		if !eventBitEqual(a.Events[i], b.Events[i]) {
			return false
		}
	}
	return true
}

// decodeInTwo feeds data to a ChunkDecoder in two pieces split at
// offset split and returns the finished trace.
func decodeInTwo(data []byte, split int) (*Trace, error) {
	c := NewChunkDecoder(nil)
	if _, err := c.Feed(data[:split]); err != nil {
		return nil, err
	}
	if _, err := c.Feed(data[split:]); err != nil {
		return nil, err
	}
	return c.Finish()
}

// FuzzDecodeV2 hammers the columnar block decoder: arbitrary bytes must
// decode cleanly or fail cleanly; anything accepted must survive a v2
// re-encode round trip; and the chunked decoder, fed the input in two
// pieces split at an input-derived offset, must agree with the one-shot
// decode — rejecting what it rejects, and returning the identical trace
// whenever it accepts (it may reject more: it validates as it decodes
// and refuses trailing bytes).
func FuzzDecodeV2(f *testing.F) {
	for _, seed := range encodedV2Seeds(f) {
		f.Add(seed)
	}
	f.Add([]byte("MSCP\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		split := 0
		if len(data) > 0 {
			split = int(data[len(data)-1]) * len(data) / 256
		}
		chunked, cerr := decodeInTwo(data, split)
		tr, err := DecodeBytes(data)
		if err != nil {
			if cerr == nil {
				t.Fatalf("chunked decode accepted an image the one-shot decode rejects: %v", err)
			}
			return
		}
		var v2 bytes.Buffer
		if err := tr.Encode(&v2); err != nil {
			t.Fatalf("decoded trace failed to re-encode as v2: %v", err)
		}
		again, err := DecodeBytes(v2.Bytes())
		if err != nil {
			t.Fatalf("re-encoded v2 trace failed to decode: %v", err)
		}
		if !traceBitEqual(tr, again) {
			t.Fatal("v2 round trip changed the trace")
		}
		if cerr != nil {
			if tr.Validate() == nil && bytes.Equal(v2.Bytes(), data) {
				t.Fatalf("chunked decode split at %d rejected a valid canonical image: %v", split, cerr)
			}
			return
		}
		if !traceBitEqual(chunked, tr) {
			t.Fatalf("chunked decode split at %d differs from the one-shot decode", split)
		}
	})
}

// FuzzDecodeDifferential cross-checks the decoders against the encoder:
// any trace the decoder accepts, in either format, must encode as v2
// and decode back to the identical trace, compared field by field.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range frozenV1Seeds(f) {
		f.Add(seed)
	}
	for _, seed := range encodedV2Seeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return
		}
		var v2 bytes.Buffer
		if err := tr.Encode(&v2); err != nil {
			t.Fatalf("accepted trace failed to encode as v2: %v", err)
		}
		got, err := DecodeBytes(v2.Bytes())
		if err != nil {
			t.Fatalf("v2 image of an accepted trace failed to decode: %v", err)
		}
		if !traceBitEqual(tr, got) {
			t.Fatal("decode → v2 encode → decode is not the identity")
		}
	})
}

// corruptVarint overwrites the varint at off with the given value,
// keeping the rest of the image intact (the new varint must use the
// same byte length as the old one for the tail to stay aligned; the
// tests pick offsets where that holds).
func putUvarintAt(data []byte, off int, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	_, oldLen := binary.Uvarint(data[off:])
	out := append([]byte{}, data[:off]...)
	out = append(out, tmp[:n]...)
	return append(out, data[off+oldLen:]...)
}

// TestDecodeRejectsOversizedCounts corrupts each count header of a
// valid image to a value the remaining bytes cannot satisfy; the
// decoder must fail before allocating the declared amount.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	img := frozenV1Seeds(t)[0]

	// Locate the section offsets by re-decoding with a tracking decoder.
	d := &decoder{data: img}
	d.pos = 5 // magic + version
	d.i64()   // rank
	d.i64()   // metahost
	d.i64()   // node
	d.i64()   // cpu
	d.str()   // metahost name
	d.i64()   // global master
	d.i64()   // local master
	d.byte()  // shared clock
	for i := 0; i < 18; i++ {
		d.f64()
	}
	regionCountOff := d.pos
	if d.err != nil {
		t.Fatal(d.err)
	}

	// A region count far beyond the remaining input must be rejected
	// with a bounded error, not an allocation.
	bad := putUvarintAt(img, regionCountOff, 1<<19)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "exceeds remaining input") {
		t.Fatalf("oversized region count accepted: %v", err)
	}
	// Beyond the absolute cap: "implausible".
	bad = putUvarintAt(img, regionCountOff, 1<<40)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible region count accepted: %v", err)
	}
}

// TestDecodeRejectsOversizedEventCount truncates a valid image right
// after an inflated event count: the declared count must be validated
// against the remaining bytes before make([]Event, ne) runs.
func TestDecodeRejectsOversizedEventCount(t *testing.T) {
	// The v1 image of a trace with no regions/comms/events: the event
	// count is the last varint of the image.
	img := frozenV1Seeds(t)[1]
	eventCountOff := len(img) - 1 // trailing zero varint
	bad := putUvarintAt(img, eventCountOff, 1<<27)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "exceeds remaining input") {
		t.Fatalf("oversized event count accepted: %v", err)
	}
	bad = putUvarintAt(img, eventCountOff, 1<<30)
	if _, err := DecodeBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible event count accepted: %v", err)
	}
}

// TestDecodeBytesInterned checks that two decodes through one interner
// share region-name storage, and that a nil interner still works.
func TestDecodeBytesInterned(t *testing.T) {
	img := frozenV1Seeds(t)[0]
	in := NewInterner()
	a, err := DecodeBytesInterned(img, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBytesInterned(img, in)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() == 0 {
		t.Fatal("interner saw no strings")
	}
	for i := range a.Regions {
		if a.Regions[i].Name != b.Regions[i].Name {
			t.Fatalf("region %d name mismatch", i)
		}
	}
	if a.Loc.MetahostName != b.Loc.MetahostName {
		t.Fatal("metahost name mismatch")
	}
	// Same image through a nil interner must decode identically.
	c, err := DecodeBytesInterned(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loc.MetahostName != a.Loc.MetahostName {
		t.Fatal("nil-interner decode diverged")
	}
}
