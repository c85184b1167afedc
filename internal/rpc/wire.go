package rpc

import (
	"encoding/binary"
	"errors"
)

// This file is what a hand-written wire form is made of: the two
// interfaces a payload type implements to travel without gob, the
// append helpers that write one, and the bounds-checked reader that
// decodes one (and the frame envelope) from bytes a peer chose.

// WireAppender is implemented by argument and reply types that carry a
// hand-written wire form; rpc uses it instead of gob when the value
// passed to Call (or returned by a Handler) implements it. The decoding
// side must then be a WireDecoder of the same layout.
type WireAppender interface {
	AppendWire(b []byte) []byte
}

// WireDecoder is the decoding half of WireAppender. DecodeWire must
// treat b as hostile: read it through a WireReader.
type WireDecoder interface {
	DecodeWire(b []byte) error
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// errShort is the WireReader's one failure: the bytes ran out, or a
// length or count claimed more than the bytes that are left.
var errShort = errors.New("truncated or overlong field")

// WireReader reads a hand-written wire form from untrusted bytes. Every
// length and count is checked against the bytes that remain before
// anything is sliced or allocated. The first failure sticks: later
// reads return zero values and Done reports it, so a decoder reads its
// fields straight through and checks once.
type WireReader struct {
	buf []byte
	err error
}

// NewWireReader reads from b.
func NewWireReader(b []byte) *WireReader { return &WireReader{buf: b} }

// Done returns the first failure, or an error if bytes are left over
// after the last field, or nil.
func (r *WireReader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		return errors.New("bytes after the last field")
	}
	return r.err
}

// take returns the next n bytes, or nil after a failure.
func (r *WireReader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.buf)) {
		r.err = errShort
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Byte reads one byte.
func (r *WireReader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte as a boolean.
func (r *WireReader) Bool() bool { return r.Byte() != 0 }

// Uint32 reads a fixed 4-byte big-endian value.
func (r *WireReader) Uint32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads a fixed 8-byte big-endian value.
func (r *WireReader) Uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errShort
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *WireReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// String reads a uvarint length and that many bytes.
func (r *WireReader) String() string { return string(r.take(r.Uvarint())) }

// Count reads an element count for a sequence whose elements occupy at
// least minBytes each, and fails if the remaining bytes cannot hold
// that many — so the caller may allocate Count elements up front.
func (r *WireReader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil || n > uint64(len(r.buf)/minBytes) {
		r.err = errShort
		return 0
	}
	return int(n)
}

// Strings reads a sequence written by AppendStrings; empty reads as nil.
func (r *WireReader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// StringMap reads a map written by AppendStringMap; empty reads as nil.
func (r *WireReader) StringMap() map[string]string {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		out[k] = r.String()
	}
	return out
}

// Varints reads a sequence written by AppendVarints; empty reads as nil.
func (r *WireReader) Varints() []int64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Varint()
	}
	return out
}

// AppendStrings appends a count and each string.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendStringMap appends a count and each key and value, in map order.
func AppendStringMap(b []byte, m map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = AppendString(AppendString(b, k), v)
	}
	return b
}

// AppendVarints appends a count and each value as a signed varint.
func AppendVarints(b []byte, vs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// AppendBool appends one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
