package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"zipg/internal/telemetry"
)

// This file is the frame: the envelope, the payload field that rides in
// it and the shipped spans, all coded through the Codec of wire.go.
//
// A frame is a 4-byte big-endian length followed by that many bytes:
//
//	version  1   frameVersion
//	flags    1   flagTrace | flagSampled | flagDeadline | flagErr | flagSpans
//	call ID  8   big-endian
//	method   uvarint length + bytes (empty in a response)
//	trace    24  trace ID hi, lo, caller span ID     (flagTrace)
//	deadline 8   absolute, Unix nanoseconds          (flagDeadline)
//	error    uvarint length + bytes                  (flagErr)
//	payload  4-byte big-endian length + bytes (payloadWire first; length 0 = none)
//	spans    uvarint count + spans (wireSpan)        (flagSpans)
//
// Requests and responses share the layout; a request never sets flagErr
// or flagSpans and a response never sets the trace or deadline flags.
// The fields come in the order a server learns them (error, then the
// encoded result, then the spans of the work that encoded it), so a
// frame is built front to back in one buffer.

// frameVersion is the only envelope version this build speaks. A frame
// with another version is refused whole: there are no older binaries.
const frameVersion = 1

const (
	flagTrace    = 1 << iota // trace ID and caller span ID present
	flagSampled              // originator's sampling decision
	flagDeadline             // absolute deadline present
	flagErr                  // error string present (response)
	flagSpans                // shipped spans present (response)
)

// flagsAt is the flags byte's offset from the start of a frame, length
// prefix included.
const flagsAt = 5

// payloadWire is the first byte of every non-empty payload: the value's
// Wire form follows. It is the one payload kind; any other is refused.
const payloadWire = 1

// frame is the decoded envelope of one request or response.
type frame struct {
	id      uint64
	method  string
	trace   telemetry.TraceContext
	err     string
	payload []byte // aliases the buffer the frame was read into
	spans   []telemetry.Span
}

// bufPool recycles frame write buffers: a frame is built in one buffer
// and leaves in one conn.Write.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps a rare huge frame from pinning its buffer forever.
const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// envelope codes f's fields up to, not including, the payload, and
// returns the flags byte. Encoding, the flags are derived from f;
// decoding, they say which fields follow, and a version other than
// frameVersion fails the decode.
func (f *frame) envelope(c *Codec) byte {
	var flags byte
	if !f.trace.Trace.IsZero() {
		flags |= flagTrace
	}
	if f.trace.Sampled {
		flags |= flagSampled
	}
	if f.trace.Deadline != 0 {
		flags |= flagDeadline
	}
	if f.err != "" {
		flags |= flagErr
	}
	version := byte(frameVersion)
	c.Byte(&version)
	if version != frameVersion {
		c.fail(fmt.Errorf("unsupported frame version %d (this build speaks %d)", version, frameVersion))
	}
	c.Byte(&flags)
	c.Uint64(&f.id)
	c.String(&f.method)
	if flags&flagTrace != 0 {
		c.Uint64(&f.trace.Trace.Hi)
		c.Uint64(&f.trace.Trace.Lo)
		c.Uint64(&f.trace.SpanID)
	}
	f.trace.Sampled = flags&flagSampled != 0
	if flags&flagDeadline != 0 {
		deadline := uint64(f.trace.Deadline)
		c.Uint64(&deadline)
		f.trace.Deadline = int64(deadline)
	}
	if flags&flagErr != 0 {
		c.String(&f.err)
	}
	return flags
}

// beginFrame starts a frame at b[0]: the length prefix (patched by
// endFrame) and the envelope. f's payload and spans are not read;
// appendPayload and endFrame add them.
func beginFrame(b []byte, f *frame) []byte {
	c := Codec{b: append(b[:0], 0, 0, 0, 0)}
	f.envelope(&c)
	return c.b
}

// appendPayload appends the payload field for v to the frame begun at
// b[0]: nothing for nil, else payloadWire and v's wire form. If v has no
// wire form, or the frame so far outgrows maxFrame, b is returned as it
// came.
func appendPayload(b []byte, v any) ([]byte, error) {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	if v != nil {
		c := Codec{b: append(b, payloadWire)}
		if err := c.value(v); err != nil {
			return b[:at], err
		}
		b = c.b
	}
	if n := uint64(len(b) - 4); n > maxFrame {
		return b[:at], &FrameTooLargeError{Size: uint32(min(n, math.MaxUint32)), Limit: maxFrame}
	}
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b, nil
}

// endFrame completes the frame begun at b[0]: it appends the shipped
// spans, if any, and patches the length prefix. Spans that would push
// the frame past maxFrame are left out; they are diagnostics, and
// appendPayload has already made sure the rest fits.
func endFrame(b []byte, spans []telemetry.Span) []byte {
	if len(spans) > 0 {
		at := len(b)
		c := Codec{b: b}
		Seq(&c, &spans, minSpanWire, wireSpan)
		if b = c.b; len(b)-4 > maxFrame {
			b = b[:at]
		} else {
			b[flagsAt] |= flagSpans
		}
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// errBadFrame marks a frame that arrived whole but does not parse.
var errBadFrame = errors.New("rpc: bad frame")

// decodeFrame parses a frame body (the bytes after the length prefix).
func decodeFrame(body []byte) (frame, error) {
	var f frame
	c := Codec{b: body, dec: true}
	flags := f.envelope(&c)
	if n := c.take(4); n != nil {
		f.payload = c.take(uint64(binary.BigEndian.Uint32(n)))
	}
	if flags&flagSpans != 0 {
		Seq(&c, &f.spans, minSpanWire, wireSpan)
	}
	if err := c.done(); err != nil {
		return frame{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return f, nil
}

// writeFrame sends a finished frame with a single Write. mu serializes
// the writers of one connection. The bytes are counted before they
// leave, so whoever has read the frame also finds it counted.
func writeFrame(w io.Writer, mu *sync.Mutex, b []byte) error {
	mFrameBytesWritten.Add(int64(len(b)))
	mu.Lock()
	_, err := w.Write(b)
	mu.Unlock()
	return err
}

// readFrame receives one frame. The body is a fresh allocation of the
// advertised length, which is checked against maxFrame first; the
// returned frame's payload aliases it.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return frame{}, &FrameTooLargeError{Size: n, Limit: maxFrame}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	mFrameBytesRead.Add(int64(4 + n))
	return decodeFrame(body)
}

// decodePayload decodes a payload into v, a pointer: a Wirer, *bool or
// *[]byte.
func decodePayload(p []byte, v any) error {
	switch {
	case len(p) == 0:
		return errors.New("rpc: empty payload")
	case p[0] != payloadWire:
		return fmt.Errorf("rpc: unknown payload kind %d", p[0])
	}
	switch v.(type) {
	case bool, []byte:
		return fmt.Errorf("rpc: cannot decode into a %T, only through a pointer", v)
	}
	c := Codec{b: p[1:], dec: true}
	if err := c.value(v); err != nil {
		return err
	}
	return c.done()
}

// minSpanWire is the least a span occupies on the wire: the five fixed
// words, the marks byte, and one byte for each of the ten variable
// fields. It bounds the span count a frame may claim by the bytes it
// actually has.
const minSpanWire = 5*8 + 1 + 10

// wireSpan codes one shipped span. Only exported fields travel.
func wireSpan(c *Codec, sp *telemetry.Span) {
	start, marks, dur := uint64(sp.Start.UnixNano()), byte(0), int64(sp.Duration)
	for i, set := range [...]bool{sp.LogStore, sp.NodeFile, sp.EdgeFile} {
		if set {
			marks |= 1 << i
		}
	}
	c.Uint64(&sp.Trace.Hi)
	c.Uint64(&sp.Trace.Lo)
	c.Uint64(&sp.SpanID)
	c.Uint64(&sp.ParentID)
	c.Uint64(&start)
	c.Byte(&marks)
	c.String(&sp.Op)
	c.String(&sp.Err)
	c.Int(&sp.Server)
	c.Varint(&dur)
	c.Int(&sp.Fanout)
	c.Int(&sp.Local)
	c.Int(&sp.Remote)
	c.Varint(&sp.Bytes)
	Seq(c, &sp.Phases, 2, wirePhase)
	Seq(c, &sp.Shards, 1, (*Codec).Int)
	if c.dec {
		sp.Start, sp.Duration = time.Unix(0, int64(start)), time.Duration(dur)
		sp.LogStore, sp.NodeFile, sp.EdgeFile = marks&1 != 0, marks&2 != 0, marks&4 != 0
	}
}

// wirePhase codes one phase of a shipped span.
func wirePhase(c *Codec, ph *telemetry.Phase) {
	c.String(&ph.Name)
	c.Varint(&ph.Ns)
}
