package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the one wire encoding. A payload type names its fields
// once, in order, in its Wire method; the same method encodes it and
// decodes it, so the two directions cannot disagree. Integers are signed
// varints, strings and sequences carry a uvarint length, and an empty
// slice or map decodes as nil.

// Wirer is implemented by every argument and reply type. Wire passes a
// pointer to each field, in order, to c's methods. It must not branch on
// the values it codes, except on a count or flag it coded first.
type Wirer interface {
	Wire(c *Codec)
}

// errShort is a decode's usual failure: the bytes ran out, or a length
// or count claimed more than the bytes that are left.
var errShort = errors.New("truncated or overlong field")

// Codec codes one value in one direction. Encoding, each method appends
// the field its argument points to and never writes through the
// pointer, so one value may be encoded by many goroutines at once.
// Decoding, each method fills the field from untrusted bytes: every
// length and count is checked against the bytes that remain before
// anything is sliced or allocated, and the first failure sticks — later
// fields read nothing and the caller checks once, at the end.
type Codec struct {
	b   []byte // encoding: the bytes so far; decoding: the bytes left
	dec bool
	err error
}

// value codes v: a Wirer, or one of the two built-in forms, a bool and a
// []byte (a uvarint length and the bytes). Anything else is refused by
// name.
func (c *Codec) value(v any) error {
	switch x := v.(type) {
	case Wirer:
		x.Wire(c)
	case *bool:
		c.Bool(x)
	case *[]byte:
		c.bytes(x)
	case bool:
		c.Bool(&x)
	case []byte:
		c.bytes(&x)
	default:
		return fmt.Errorf("rpc: %T has no wire form", v)
	}
	return nil
}

// fail records err unless an earlier failure is already recorded.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// done returns a decode's first failure, or an error if bytes are left
// over after the last field, or nil.
func (c *Codec) done() error {
	if c.err == nil && len(c.b) > 0 {
		return errors.New("bytes after the last field")
	}
	return c.err
}

// take returns the next n bytes read, or nil after a failure.
func (c *Codec) take(n uint64) []byte {
	if c.err != nil || n > uint64(len(c.b)) {
		c.fail(errShort)
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// uvarint codes an unsigned varint: it writes n, or reads and returns one.
func (c *Codec) uvarint(n uint64) uint64 {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, n)
		return n
	}
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.b)
	if k <= 0 {
		c.fail(errShort)
		return 0
	}
	c.b = c.b[k:]
	return v
}

// count codes the length n of a sequence whose elements occupy at least
// minBytes each. Decoding, it fails if the bytes left cannot hold that
// many, so the caller may allocate the elements up front.
func (c *Codec) count(n, minBytes int) int {
	u := c.uvarint(uint64(n))
	if c.dec && u > uint64(len(c.b)/minBytes) {
		c.fail(errShort)
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Byte codes one byte.
func (c *Codec) Byte(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.Byte(&b)
	if c.dec {
		*v = b != 0
	}
}

// Uint64 codes a fixed 8-byte big-endian value.
func (c *Codec) Uint64(v *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// Varint codes a signed (zig-zag) varint.
func (c *Codec) Varint(v *int64) {
	u := c.uvarint(uint64(*v<<1) ^ uint64(*v>>63))
	if c.dec {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// Int codes an int as a signed varint.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	c.Varint(&x)
	if c.dec {
		*v = int(x)
	}
}

// String codes a uvarint length and the string's bytes.
func (c *Codec) String(v *string) {
	n := c.uvarint(uint64(len(*v)))
	if !c.dec {
		c.b = append(c.b, *v...)
	} else {
		*v = string(c.take(n))
	}
}

// bytes codes a uvarint length and the bytes; decoding reuses v's
// capacity.
func (c *Codec) bytes(v *[]byte) {
	n := c.uvarint(uint64(len(*v)))
	if !c.dec {
		c.b = append(c.b, *v...)
	} else {
		*v = append((*v)[:0], c.take(n)...)
	}
}

// Strings codes a count and each string.
func (c *Codec) Strings(v *[]string) { Seq(c, v, 1, (*Codec).String) }

// Varints codes a count and each value as a signed varint.
func (c *Codec) Varints(v *[]int64) { Seq(c, v, 1, (*Codec).Varint) }

// StringMap codes a count and each key and value, in map order.
func (c *Codec) StringMap(v *map[string]string) {
	n := c.count(len(*v), 2)
	if !c.dec {
		for k, s := range *v {
			c.String(&k)
			c.String(&s)
		}
		return
	}
	*v = nil
	if n > 0 {
		*v = make(map[string]string, n)
	}
	for range n {
		var k, s string
		c.String(&k)
		c.String(&s)
		(*v)[k] = s
	}
}

// Seq codes a count and each element of a sequence by elem, whose every
// element occupies at least minBytes on the wire. Pass a method
// expression or a plain function, such as (*Codec).String, so no closure
// is allocated.
func Seq[T any](c *Codec, v *[]T, minBytes int, elem func(*Codec, *T)) {
	n := c.count(len(*v), minBytes)
	if c.dec {
		*v = nil
		if n > 0 {
			*v = make([]T, n)
		}
	}
	for i := range n {
		elem(c, &(*v)[i])
	}
}
