package trace

import (
	"errors"
	"fmt"
	"io"
)

// ChunkDecoder decodes an MSCP trace that arrives in pieces: each Feed
// call appends bytes and returns the events completed so far, so a
// live analysis can start replaying a rank while the rank is still
// uploading. The decoder is resumable at any byte boundary — a varint,
// a float, or the header itself may be split across chunks — and it
// validates incrementally with exactly the checks (*Trace).Validate
// applies post-mortem: monotone time stamps, known regions, balanced
// Enter/Exit nesting, operations inside a region. Feeding the same
// bytes chunked or whole therefore yields the same trace or the same
// error.
//
// A ChunkDecoder is not safe for concurrent use; the caller serializes
// Feed/Finish per rank (the serve layer's sequence numbers do this).
type ChunkDecoder struct {
	// DiscardEvents, when set before the first Feed, stops the decoder
	// from accumulating events on the trace returned by Header/Finish:
	// events are still decoded, validated, and handed to the caller as
	// they complete, but the decoder's resident memory stays bounded by
	// one chunk (plus one block for v2 streams). The live analysis
	// engine runs in this mode — its rank logs already hold the events,
	// so a second copy on the Trace would double live memory.
	DiscardEvents bool

	intern *Interner
	buf    []byte // bytes fed but not yet consumed
	fed    int64  // total bytes ever fed

	t        *Trace // nil until the header has fully decoded
	version  byte   // format version from the header
	declared uint64 // event count from the header
	decoded  uint64 // events completed so far

	// v2 block streaming state.
	blockSize int     // events per block, 0 until read
	blockBuf  []Event // reusable block decode buffer

	// Incremental Validate state.
	val *streamValidator

	err error // sticky: first fatal error ends the stream
}

// NewChunkDecoder returns a decoder that canonicalizes region and
// metahost names through in (nil disables interning), matching
// DecodeBytesInterned.
func NewChunkDecoder(in *Interner) *ChunkDecoder {
	return &ChunkDecoder{intern: in}
}

// needMore reports whether a decode error means "the bytes are not
// here yet" (resume after the next Feed) rather than corruption.
func needMore(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// Feed appends data to the stream and returns the events that became
// complete, in trace order. A nil slice with a nil error means the
// decoder is waiting for more bytes (mid-header or mid-event). Errors
// are sticky: once Feed reports corruption, the decoder is dead.
func (c *ChunkDecoder) Feed(data []byte) ([]Event, error) {
	if c.err != nil {
		return nil, c.err
	}
	c.buf = append(c.buf, data...)
	c.fed += int64(len(data))

	if c.t == nil {
		d := &decoder{data: c.buf, intern: c.intern, streaming: true}
		t, ne, err := decodeHeader(d)
		if err != nil {
			if needMore(err) {
				return nil, nil // header still arriving
			}
			c.err = err
			return nil, c.err
		}
		if ne > maxEventCount {
			c.err = fmt.Errorf("trace: implausible event count %d", ne)
			return nil, c.err
		}
		c.t = t
		c.declared = ne
		c.version = d.version
		c.val = newStreamValidator(t)
		c.buf = c.buf[:copy(c.buf, c.buf[d.pos:])]
	}

	if c.version == formatVersion2 && c.blockSize == 0 {
		// The v2 stream carries its block size right after the header;
		// the varint may itself straddle a chunk boundary.
		d := &decoder{data: c.buf, intern: c.intern, streaming: true}
		bs, err := decodeV2BlockSize(d)
		if err != nil {
			if needMore(err) {
				return nil, nil
			}
			c.err = err
			return nil, c.err
		}
		c.blockSize = bs
		c.blockBuf = make([]Event, bs)
		c.buf = c.buf[:copy(c.buf, c.buf[d.pos:])]
	}

	d := &decoder{data: c.buf, intern: c.intern, streaming: true}
	var fresh []Event
	if c.version == formatVersion2 {
		for c.decoded < c.declared {
			start := d.pos
			n, err := decodeV2Block(d, c.blockBuf, c.blockSize)
			if err != nil {
				if needMore(err) {
					d.pos = start // block still arriving; retry next Feed
					break
				}
				c.err = err
				return nil, c.err
			}
			if uint64(n) > c.declared-c.decoded {
				c.err = fmt.Errorf("trace %v: blocks hold more events than the declared count %d",
					c.t.Loc, c.declared)
				return nil, c.err
			}
			for i := 0; i < n; i++ {
				ev := c.blockBuf[i]
				if err := c.val.Event(&ev); err != nil {
					c.err = err
					return nil, c.err
				}
				if !c.DiscardEvents {
					c.t.Events = append(c.t.Events, ev)
				}
				fresh = append(fresh, ev)
				c.decoded++
			}
		}
	} else {
		for c.decoded < c.declared {
			start := d.pos
			var ev Event
			if err := decodeEvent(d, int(c.decoded), &ev); err != nil {
				if needMore(err) {
					d.pos = start // event still arriving; retry next Feed
					break
				}
				c.err = err
				return nil, c.err
			}
			if err := c.val.Event(&ev); err != nil {
				c.err = err
				return nil, c.err
			}
			if !c.DiscardEvents {
				c.t.Events = append(c.t.Events, ev)
			}
			fresh = append(fresh, ev)
			c.decoded++
		}
	}
	c.buf = c.buf[:copy(c.buf, c.buf[d.pos:])]
	if c.decoded == c.declared && len(c.buf) > 0 {
		c.err = fmt.Errorf("trace %v: %d trailing byte(s) after %d declared events",
			c.t.Loc, len(c.buf), c.declared)
		return nil, c.err
	}
	return fresh, nil
}

// Finish declares end-of-stream and returns the completed trace. A
// stream that ends mid-header, short of its declared event count, or
// with unbalanced regions is an error — the same faults Validate
// reports on a truncated file.
func (c *ChunkDecoder) Finish() (*Trace, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.t == nil {
		c.err = fmt.Errorf("trace: stream ended inside the header (%d bytes): %w",
			c.fed, io.ErrUnexpectedEOF)
		return nil, c.err
	}
	if c.version == formatVersion2 && c.blockSize == 0 {
		c.err = fmt.Errorf("trace %v: stream ended before its block size: %w",
			c.t.Loc, io.ErrUnexpectedEOF)
		return nil, c.err
	}
	if c.decoded < c.declared {
		c.err = fmt.Errorf("trace %v: stream ended after %d of %d declared events: %w",
			c.t.Loc, c.decoded, c.declared, io.ErrUnexpectedEOF)
		return nil, c.err
	}
	if err := c.val.Close(); err != nil {
		c.err = err
		return nil, c.err
	}
	return c.t, nil
}

// Header returns the decoded trace header (location, sync block,
// regions, communicators) once it is complete, nil before that. The
// returned trace's Events slice grows as chunks land; Finish returns
// the same pointer when the stream completes.
func (c *ChunkDecoder) Header() *Trace { return c.t }

// Declared returns the event count announced by the header, valid once
// Header is non-nil.
func (c *ChunkDecoder) Declared() uint64 { return c.declared }

// Decoded returns the number of fully decoded events so far.
func (c *ChunkDecoder) Decoded() uint64 { return c.decoded }

// BytesFed returns the total number of bytes fed so far.
func (c *ChunkDecoder) BytesFed() int64 { return c.fed }

// Err returns the sticky error, if any.
func (c *ChunkDecoder) Err() error { return c.err }
