package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// synthTrace builds a structurally valid trace with ne events covering
// every event kind, deterministic in seed.
func synthTrace(seed int64, ne int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		Loc: Location{Rank: 3, Metahost: 1, MetahostName: "viola-a", Node: 2, CPU: 1},
		Regions: []Region{
			{ID: 1, Name: "main", Kind: RegionUser},
			{ID: 2, Name: "MPI_Send", Kind: RegionMPIP2P},
			{ID: 3, Name: "MPI_Allreduce", Kind: RegionMPIColl},
		},
		Comms: []CommDef{{ID: 0, Ranks: []int32{0, 1, 2, 3}}},
	}
	t.Sync.GlobalMasterRank = 0
	t.Sync.LocalMasterRank = 1
	t.Sync.SharedNodeClock = true
	t.Sync.FlatStart.Local = 0.25
	t.Sync.FlatStart.Offset = -1e-3
	t.Sync.FlatStart.Err = 2e-6
	t.Sync.MasterEnd.Local = 99.5

	now := 1.0
	depth := 0
	for len(t.Events) < ne {
		now += rng.Float64() * 1e-3
		switch k := rng.Intn(6); {
		case k == 0 || depth == 0:
			t.Events = append(t.Events, Event{Kind: KindEnter, Time: now, Region: RegionID(1 + rng.Intn(3))})
			depth++
		case k == 1 && depth > 0:
			t.Events = append(t.Events, Event{Kind: KindExit, Time: now, Region: RegionID(1 + rng.Intn(3))})
			depth--
		case k == 2:
			t.Events = append(t.Events, Event{Kind: KindSend, Time: now,
				Comm: 0, Peer: int32(rng.Intn(4)), Tag: int32(rng.Intn(100)), Bytes: int64(rng.Intn(1 << 20))})
		case k == 3:
			t.Events = append(t.Events, Event{Kind: KindRecv, Time: now,
				Comm: 0, Peer: int32(rng.Intn(4)), Tag: int32(rng.Intn(100)), Bytes: int64(rng.Intn(1 << 20))})
		default:
			t.Events = append(t.Events, Event{Kind: KindCollExit, Time: now,
				Comm: 0, Coll: CollAllreduce, Root: -1, Bytes: 4096})
		}
	}
	return t
}

func encodeV2Bytes(t *testing.T, tr *Trace, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.encodeV2(&buf, blockSize); err != nil {
		t.Fatalf("encodeV2: %v", err)
	}
	return buf.Bytes()
}

func TestV2RoundTrip(t *testing.T) {
	for _, ne := range []int{0, 1, 7, 100, 4096, 4097, 10000} {
		tr := synthTrace(int64(ne), ne)
		data := encodeV2Bytes(t, tr, defaultBlockSize)
		got, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("ne=%d: decode: %v", ne, err)
		}
		if len(got.Events) == 0 {
			got.Events = nil
		}
		if len(tr.Events) == 0 {
			tr.Events = nil
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("ne=%d: v2 round trip mutated the trace", ne)
		}
	}
}

// TestV2RoundTripOddBlockSizes exercises block boundaries that do not
// divide the event count, including one-event blocks.
func TestV2RoundTripOddBlockSizes(t *testing.T) {
	tr := synthTrace(7, 1000)
	for _, bs := range []int{1, 2, 3, 63, 999, 1000, 1001, maxBlockSize} {
		data := encodeV2Bytes(t, tr, bs)
		got, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("bs=%d: decode: %v", bs, err)
		}
		if !reflect.DeepEqual(tr.Events, got.Events) {
			t.Fatalf("bs=%d: events differ after round trip", bs)
		}
	}
}

// synthV1Image is the v1 image of synthTrace(42, 500), written by the
// v1 encoder before it was retired and never regenerated.
const synthV1Image = "testdata/synth42x500.v1.mscp"

// TestV2MatchesV1 pins the formats to the same model: every checked-in
// v1 image must decode to the same trace as the v2 encoding of its
// source. On the 500-event image v2 must also be the smaller encoding.
func TestV2MatchesV1(t *testing.T) {
	synth, err := os.ReadFile(synthV1Image)
	if err != nil {
		t.Fatal(err)
	}
	names := append(append([]string(nil), frozenV1...), synthV1Image)
	images := append(frozenV1Seeds(t), synth)
	sources := append(seedTraces(), synthTrace(42, 500))
	for i, v1 := range images {
		var v2 bytes.Buffer
		if err := sources[i].Encode(&v2); err != nil {
			t.Fatal(err)
		}
		if f, err := FormatOf(v1); err != nil || f != FormatV1 {
			t.Fatalf("%s: FormatOf = %v, %v; want v1", names[i], f, err)
		}
		d1, err := DecodeBytes(v1)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := DecodeBytes(v2.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Errorf("%s: v1 and v2 decodes of the same trace differ", names[i])
		}
		if names[i] == synthV1Image && v2.Len() >= len(v1) {
			t.Errorf("v2 image (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), len(v1))
		}
	}
}

// TestV2TimeBitExact pins the lossless time encoding on values whose
// deltas are not representable as floats (denormals, huge magnitudes,
// sign flips on the bit pattern).
func TestV2TimeBitExact(t *testing.T) {
	times := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.1, 1, 1 + 1e-16,
		math.MaxFloat64, math.Inf(1)}
	tr := &Trace{Regions: []Region{{ID: 1, Name: "r"}}}
	for _, tm := range times {
		tr.Events = append(tr.Events, Event{Kind: KindEnter, Time: tm, Region: 1})
	}
	got, err := DecodeBytes(encodeV2Bytes(t, tr, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		if b1, b2 := math.Float64bits(tm), math.Float64bits(got.Events[i].Time); b1 != b2 {
			t.Errorf("event %d: time bits %x decoded as %x", i, b1, b2)
		}
	}
}

func TestFormatOf(t *testing.T) {
	var v2 bytes.Buffer
	if err := synthTrace(1, 10).Encode(&v2); err != nil {
		t.Fatal(err)
	}
	if f, err := FormatOf(frozenV1Seeds(t)[0]); err != nil || f != FormatV1 {
		t.Errorf("FormatOf(v1) = %v, %v", f, err)
	}
	if f, err := FormatOf(v2.Bytes()); err != nil || f != FormatV2 {
		t.Errorf("FormatOf(v2) = %v, %v", f, err)
	}
	if _, err := FormatOf([]byte("not a trace")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("foreign input: %v, want ErrBadMagic", err)
	}
	if _, err := FormatOf([]byte{'M', 'S', 'C', 'P', 9}); err == nil {
		t.Error("version 9 accepted")
	}
	if _, err := FormatOf([]byte("MS")); err == nil {
		t.Error("short input accepted")
	}
}

// TestV2BlockRejectsSmallBuffer: a block holding more events than the
// destination has room for is an error, not an overrun — the check
// that stops a one-shot decode whose blocks exceed the declared count.
func TestV2BlockRejectsSmallBuffer(t *testing.T) {
	d := &decoder{data: encodeV2Bytes(t, synthTrace(5, 100), 64)}
	if _, _, err := decodeHeader(d); err != nil {
		t.Fatal(err)
	}
	bs, err := decodeV2BlockSize(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeV2Block(d, make([]Event, 10), bs); err == nil {
		t.Fatal("undersized buffer accepted")
	}
}

// TestV2Truncation decodes every prefix of a v2 image; none may
// succeed (except the full image) and none may panic.
func TestV2Truncation(t *testing.T) {
	tr := synthTrace(11, 300)
	data := encodeV2Bytes(t, tr, 64)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeBytes(data[:n]); err == nil {
			t.Fatalf("truncated image of %d/%d bytes decoded without error", n, len(data))
		}
	}
	if _, err := DecodeBytes(data); err != nil {
		t.Fatalf("full image: %v", err)
	}
}

// TestV2CorruptBlock flips the block payload length and the in-block
// event count; the decoder must reject both without panicking.
func TestV2Corrupt(t *testing.T) {
	tr := synthTrace(11, 50)
	data := encodeV2Bytes(t, tr, 16)
	for i := range data {
		for _, delta := range []byte{1, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= delta
			tr2, err := DecodeBytes(mut) // must not panic
			if err == nil && tr2 != nil {
				_ = tr2.Validate() // may or may not fail; must not panic
			}
		}
	}
}

func TestV2RejectsOversizedBlockSize(t *testing.T) {
	tr := synthTrace(11, 50)
	if err := tr.encodeV2(io.Discard, maxBlockSize+1); err == nil {
		t.Fatal("oversized encoder block size accepted")
	}
	if err := tr.encodeV2(io.Discard, 0); err == nil {
		t.Fatal("zero encoder block size accepted")
	}
}

// BenchmarkV2BlockDecode is the allocation contract behind the
// check.sh gate: decodeV2Block, the per-block hot path of both
// DecodeBytes and ChunkDecoder, must not allocate per block. One
// iteration decodes one block into a caller-owned buffer.
func BenchmarkV2BlockDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := synthTrace(1, 100000).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	d := &decoder{data: buf.Bytes(), intern: NewInterner()}
	_, ne, err := decodeHeader(d)
	if err != nil {
		b.Fatal(err)
	}
	bs, err := decodeV2BlockSize(d)
	if err != nil {
		b.Fatal(err)
	}
	start := d.pos
	dst := make([]Event, bs)
	b.SetBytes(int64(defaultBlockSize * 16)) // approximate decoded bytes per block
	b.ReportAllocs()
	b.ResetTimer()
	decoded := 0
	for i := 0; i < b.N; i++ {
		if decoded == int(ne) {
			d.pos, decoded = start, 0
		}
		n, err := decodeV2Block(d, dst, bs)
		if err != nil {
			b.Fatal(err)
		}
		decoded += n
	}
}
