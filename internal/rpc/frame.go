package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"zipg/internal/telemetry"
)

// This file is the frame: the envelope, the payload field that rides in
// it and the shipped spans, all decoded through the WireReader of wire.go.
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
//	payload  4-byte big-endian length + bytes (kind byte first; 0 = none)
//	spans    uvarint count + spans (appendSpan)      (flagSpans)
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

// Payload kinds: the first payload byte says how the rest is encoded.
const (
	payloadGob  = 0 // one gob stream (any type without a wire form)
	payloadWire = 1 // the type's own AppendWire/DecodeWire form
)

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

// beginFrame starts a frame at b[0]: the length prefix (patched by
// endFrame) and the envelope up to, not including, the payload. f's
// payload and spans are not read; appendPayload and endFrame add them.
func beginFrame(b []byte, f *frame) []byte {
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
	b = append(b[:0], 0, 0, 0, 0, frameVersion, flags)
	b = binary.BigEndian.AppendUint64(b, f.id)
	b = AppendString(b, f.method)
	if flags&flagTrace != 0 {
		b = binary.BigEndian.AppendUint64(b, f.trace.Trace.Hi)
		b = binary.BigEndian.AppendUint64(b, f.trace.Trace.Lo)
		b = binary.BigEndian.AppendUint64(b, f.trace.SpanID)
	}
	if flags&flagDeadline != 0 {
		b = binary.BigEndian.AppendUint64(b, uint64(f.trace.Deadline))
	}
	if flags&flagErr != 0 {
		b = AppendString(b, f.err)
	}
	return b
}

// appendPayload appends the payload field for v to the frame begun at
// b[0]: its own wire form when it has one, one gob stream otherwise,
// nothing for nil. If v does not encode, or the frame so far outgrows
// maxFrame, b is returned as it came.
func appendPayload(b []byte, v any) ([]byte, error) {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	switch w := v.(type) {
	case nil:
	case WireAppender:
		b = w.AppendWire(append(b, payloadWire))
	default:
		buf := bytes.NewBuffer(append(b, payloadGob))
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			return b[:at], err
		}
		b = buf.Bytes()
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
		b = binary.AppendUvarint(b, uint64(len(spans)))
		for i := range spans {
			b = appendSpan(b, &spans[i])
		}
		if len(b)-4 > maxFrame {
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
	r := WireReader{buf: body}
	if v := r.Byte(); r.err == nil && v != frameVersion {
		return frame{}, fmt.Errorf("%w: unsupported frame version %d (this build speaks %d)", errBadFrame, v, frameVersion)
	}
	flags := r.Byte()
	var f frame
	f.id = r.Uint64()
	f.method = r.String()
	if flags&flagTrace != 0 {
		f.trace.Trace.Hi = r.Uint64()
		f.trace.Trace.Lo = r.Uint64()
		f.trace.SpanID = r.Uint64()
	}
	f.trace.Sampled = flags&flagSampled != 0
	if flags&flagDeadline != 0 {
		f.trace.Deadline = int64(r.Uint64())
	}
	if flags&flagErr != 0 {
		f.err = r.String()
	}
	f.payload = r.take(uint64(r.Uint32()))
	if flags&flagSpans != 0 {
		if n := r.Count(minSpanWire); n > 0 {
			f.spans = make([]telemetry.Span, n)
			for i := range f.spans {
				readSpan(&r, &f.spans[i])
			}
		}
	}
	if err := r.Done(); err != nil {
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

// decodePayload decodes a payload into v (a pointer). The payload kind
// must be the one v's type would have been sent with.
func decodePayload(p []byte, v any) error {
	if len(p) == 0 {
		return errors.New("rpc: empty payload")
	}
	d, wire := v.(WireDecoder)
	switch {
	case p[0] == payloadWire && wire:
		return d.DecodeWire(p[1:])
	case p[0] == payloadGob && !wire:
		return gob.NewDecoder(bytes.NewReader(p[1:])).Decode(v)
	}
	return fmt.Errorf("rpc: payload kind %d does not match %T", p[0], v)
}

// minSpanWire is the least a span occupies on the wire: the five fixed
// words, the marks byte, and one byte for each of the ten variable
// fields. It bounds the span count a frame may claim by the bytes it
// actually has.
const minSpanWire = 5*8 + 1 + 10

// appendSpan appends one shipped span. Only exported fields travel.
func appendSpan(b []byte, sp *telemetry.Span) []byte {
	b = binary.BigEndian.AppendUint64(b, sp.Trace.Hi)
	b = binary.BigEndian.AppendUint64(b, sp.Trace.Lo)
	b = binary.BigEndian.AppendUint64(b, sp.SpanID)
	b = binary.BigEndian.AppendUint64(b, sp.ParentID)
	b = binary.BigEndian.AppendUint64(b, uint64(sp.Start.UnixNano()))
	var marks byte
	if sp.LogStore {
		marks |= 1
	}
	if sp.NodeFile {
		marks |= 2
	}
	if sp.EdgeFile {
		marks |= 4
	}
	b = append(b, marks)
	b = AppendString(b, sp.Op)
	b = AppendString(b, sp.Err)
	b = binary.AppendVarint(b, int64(sp.Server))
	b = binary.AppendVarint(b, int64(sp.Duration))
	b = binary.AppendVarint(b, int64(sp.Fanout))
	b = binary.AppendVarint(b, int64(sp.Local))
	b = binary.AppendVarint(b, int64(sp.Remote))
	b = binary.AppendVarint(b, sp.Bytes)
	b = binary.AppendUvarint(b, uint64(len(sp.Phases)))
	for _, ph := range sp.Phases {
		b = AppendString(b, ph.Name)
		b = binary.AppendVarint(b, ph.Ns)
	}
	b = binary.AppendUvarint(b, uint64(len(sp.Shards)))
	for _, s := range sp.Shards {
		b = binary.AppendVarint(b, int64(s))
	}
	return b
}

// readSpan is appendSpan's inverse.
func readSpan(r *WireReader, sp *telemetry.Span) {
	sp.Trace.Hi = r.Uint64()
	sp.Trace.Lo = r.Uint64()
	sp.SpanID = r.Uint64()
	sp.ParentID = r.Uint64()
	sp.Start = time.Unix(0, int64(r.Uint64()))
	marks := r.Byte()
	sp.LogStore, sp.NodeFile, sp.EdgeFile = marks&1 != 0, marks&2 != 0, marks&4 != 0
	sp.Op = r.String()
	sp.Err = r.String()
	sp.Server = int(r.Varint())
	sp.Duration = time.Duration(r.Varint())
	sp.Fanout = int(r.Varint())
	sp.Local = int(r.Varint())
	sp.Remote = int(r.Varint())
	sp.Bytes = r.Varint()
	if n := r.Count(2); n > 0 {
		sp.Phases = make([]telemetry.Phase, n)
		for i := range sp.Phases {
			sp.Phases[i] = telemetry.Phase{Name: r.String(), Ns: r.Varint()}
		}
	}
	if n := r.Count(1); n > 0 {
		sp.Shards = make([]int, n)
		for i := range sp.Shards {
			sp.Shards[i] = int(r.Varint())
		}
	}
}
