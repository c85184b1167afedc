package layout

import (
	"bytes"
	"fmt"
	"sort"
)

// Delimiter scheme (§3.3). All delimiters are non-printable bytes so they
// can never collide with (validated) property values. The first 24
// property IDs get one-byte delimiters; later ones get two-byte
// delimiters (0x1A followed by a printable byte), mirroring the paper's
// one-byte/two-byte scheme.
const (
	// EndOfRecord terminates every serialized property list.
	EndOfRecord byte = 0x01
	// firstPropDelim..lastPropDelim are single-byte property delimiters.
	firstPropDelim byte = 0x02
	lastPropDelim  byte = 0x19
	// twoByteLead introduces a two-byte property delimiter.
	twoByteLead byte = 0x1A
	// EdgeRecordStart and EdgeTypeSep frame Figure 2's EdgeRecord keys,
	// $sourceID#edgeType, — which RawBytes counts, though the EdgeFile's
	// text no longer holds them.
	EdgeRecordStart byte = 0x1B
	EdgeTypeSep     byte = 0x1C
)

// numAlphabetBase is the radix of Figure 1/2's fixed-width numbers: the
// NodeFile's value lengths, in its text, and the EdgeFile's, counted by
// RawBytes only. The digit for value v is numAlphabetStart+v: 64
// consecutive printable bytes, disjoint from all delimiters.
const (
	numAlphabetBase  = 64
	numAlphabetStart = 0x30 // '0'
)

// EncodeFixed writes v in fixed-width base-64 (big-endian digits) into
// buf, which must be exactly the target width. Panics if v does not fit —
// widths are always computed from the data being encoded.
func EncodeFixed(buf []byte, v uint64) {
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = numAlphabetStart + byte(v%numAlphabetBase)
		v /= numAlphabetBase
	}
	if v != 0 {
		panic(fmt.Sprintf("layout: value does not fit in width %d", len(buf)))
	}
}

// DecodeFixed reads a fixed-width base-64 value.
func DecodeFixed(buf []byte) uint64 {
	var v uint64
	for _, b := range buf {
		v = v*numAlphabetBase + uint64(b-numAlphabetStart)
	}
	return v
}

// FixedWidth returns the number of base-64 digits needed for v (min 1).
func FixedWidth(v uint64) int {
	w := 1
	for v >= numAlphabetBase {
		v /= numAlphabetBase
		w++
	}
	return w
}

// ValidateValue reports whether a property value is storable: printable
// ASCII only, so it can never contain a delimiter or break the layout.
func ValidateValue(v string) error {
	for i := 0; i < len(v); i++ {
		if v[i] < 0x20 || v[i] > 0x7E {
			return fmt.Errorf("layout: property value %q contains non-printable byte 0x%02x at %d", v, v[i], i)
		}
	}
	return nil
}

// PropertySchema is the NodeFile's first data structure (§3.3): the
// global PropertyID → (order, delimiter) map, plus the global width
// Figure 1 gives the per-value length fields. One schema instance is
// shared by every shard so that delimiters and orders agree system-wide;
// nodes and edges each get their own schema.
type PropertySchema struct {
	// IDs in lexicographic order; Order(id) is the index here.
	ids []string
	// order[id] = index into ids.
	order map[string]int
	// delims[i] is the delimiter for ids[i] (1 or 2 bytes).
	delims [][]byte
	// LenWidth is the global fixed width of each property-value length
	// field (Figure 1), in base-64 digits.
	LenWidth int
	// maxValueLen is what the schema was constructed with (kept so the
	// schema can be serialized and rebuilt identically).
	maxValueLen int
}

// SchemaSpec is the serializable description of a PropertySchema (what
// cluster nodes exchange and shard files embed).
type SchemaSpec struct {
	PropertyIDs []string
	MaxValueLen int
}

// Spec returns a serializable description of the schema.
func (s *PropertySchema) Spec() SchemaSpec {
	return SchemaSpec{PropertyIDs: append([]string(nil), s.ids...), MaxValueLen: s.maxValueLen}
}

// Build reconstructs the schema a spec describes.
func (sp SchemaSpec) Build() (*PropertySchema, error) {
	return NewPropertySchema(sp.PropertyIDs, sp.MaxValueLen)
}

// NewPropertySchema builds a schema over the given property IDs with the
// given maximum property-value length (which fixes LenWidth).
func NewPropertySchema(propertyIDs []string, maxValueLen int) (*PropertySchema, error) {
	ids := append([]string(nil), propertyIDs...)
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("layout: duplicate property ID %q", ids[i])
		}
	}
	maxSingle := int(lastPropDelim - firstPropDelim + 1)
	maxTwo := 0x7E - 0x20 + 1 // printable second bytes
	if len(ids) > maxSingle+maxTwo {
		return nil, fmt.Errorf("layout: %d property IDs exceeds delimiter space (%d)", len(ids), maxSingle+maxTwo)
	}
	s := &PropertySchema{
		ids:         ids,
		order:       make(map[string]int, len(ids)),
		delims:      make([][]byte, len(ids)),
		LenWidth:    FixedWidth(uint64(maxValueLen)),
		maxValueLen: maxValueLen,
	}
	for i, id := range ids {
		s.order[id] = i
		if i < maxSingle {
			s.delims[i] = []byte{firstPropDelim + byte(i)}
		} else {
			s.delims[i] = []byte{twoByteLead, byte(0x20 + (i - maxSingle))}
		}
	}
	return s, nil
}

// NumProperties returns the number of property IDs in the schema.
func (s *PropertySchema) NumProperties() int { return len(s.ids) }

// IDs returns the property IDs in lexicographic order.
func (s *PropertySchema) IDs() []string { return s.ids }

// Order returns the lexicographic rank of id, or -1 if unknown.
func (s *PropertySchema) Order(id string) int {
	if k, ok := s.order[id]; ok {
		return k
	}
	return -1
}

// Delimiter returns the delimiter bytes for the property with the given
// order.
func (s *PropertySchema) Delimiter(order int) []byte { return s.delims[order] }

// NextDelimiter returns the delimiter that follows the property with the
// given order in a serialized record: the next property's delimiter, or
// EndOfRecord for the last property.
func (s *PropertySchema) NextDelimiter(order int) []byte {
	if order+1 < len(s.ids) {
		return s.delims[order+1]
	}
	return endOfRecord
}

var endOfRecord = []byte{EndOfRecord}

// ListAnchor returns the byte every serialized property list begins
// with: the first property's delimiter, or EndOfRecord when the schema
// has no property. Values are printable, so in an EdgeFile's text, a run
// of property lists, no other byte is this one: its occurrences are the
// lists' starts.
func (s *PropertySchema) ListAnchor() byte {
	if len(s.ids) == 0 {
		return EndOfRecord
	}
	return s.delims[0][0]
}

// SerializeProps encodes a property list: the delimiter-prefixed
// values of every schema property in schema order (an absent one is its
// delimiter alone), then EndOfRecord — an EdgeFile property list, and a
// NodeFile record behind its length header (AppendRecord). Returns an
// error on unknown property IDs, invalid values, or a value too long
// for the LenWidth digits Figure 1 gives its length.
func (s *PropertySchema) SerializeProps(buf []byte, props map[string]string) ([]byte, error) {
	for id, v := range props {
		if s.Order(id) < 0 {
			return nil, fmt.Errorf("layout: property ID %q not in schema", id)
		}
		if err := ValidateValue(v); err != nil {
			return nil, err
		}
		maxLen := 1
		for i := 0; i < s.LenWidth; i++ {
			maxLen *= numAlphabetBase
		}
		if len(v) >= maxLen {
			return nil, fmt.Errorf("layout: property %q value length %d exceeds schema max %d", id, len(v), maxLen-1)
		}
	}
	for i, id := range s.ids {
		buf = append(buf, s.delims[i]...)
		buf = append(buf, props[id]...)
	}
	buf = append(buf, EndOfRecord)
	return buf, nil
}

// AppendRecord encodes a NodeFile record in Figure 1's layout: a
// LenWidth-digit length for every schema property (0 when absent), then
// the property list.
func (s *PropertySchema) AppendRecord(buf []byte, props map[string]string) ([]byte, error) {
	at := len(buf)
	buf, err := s.SerializeProps(append(buf, make([]byte, s.Figure1Header())...), props)
	if err != nil {
		return nil, err
	}
	for i, id := range s.ids {
		EncodeFixed(buf[at+i*s.LenWidth:at+(i+1)*s.LenWidth], uint64(len(props[id])))
	}
	return buf, nil
}

// PropsEncodedSize returns the serialized size of a property list under
// this schema without serializing.
func (s *PropertySchema) PropsEncodedSize(props map[string]string) int {
	size := 1 // EndOfRecord
	for i := range s.ids {
		size += len(s.delims[i]) + len(props[s.ids[i]])
	}
	return size
}

// Figure1Header returns the size of Figure 1's length header: a NodeFile
// record's, which the raw-size accounting also counts for edge lists.
func (s *PropertySchema) Figure1Header() int { return len(s.ids) * s.LenWidth }

// valueLocation returns, for the property with the given order, the
// byte offset of its value relative to the start of a NodeFile record
// and the value length, given the record's length header.
func (s *PropertySchema) valueLocation(lengths []int, order int) (off, n int) {
	off = s.Figure1Header()
	for i := 0; i < order; i++ {
		off += len(s.delims[i]) + lengths[i]
	}
	off += len(s.delims[order])
	return off, lengths[order]
}

// decodeLengthsInto parses a NodeFile record's length header into dst,
// which must hold NumProperties entries.
func (s *PropertySchema) decodeLengthsInto(dst []int, hdr []byte) {
	for i := range dst {
		dst[i] = int(DecodeFixed(hdr[i*s.LenWidth : (i+1)*s.LenWidth]))
	}
}

// ParseProps decodes a property list serialized by SerializeProps
// starting at rec[0], returning the property map (absent properties
// omitted) and the list's length. The list has no length header: values
// are printable and delimiters are not, so each value ends at the first
// byte of the delimiter after it.
func (s *PropertySchema) ParseProps(rec []byte) (map[string]string, int, error) {
	props := make(map[string]string)
	pos := 0
	for i, d := range s.delims {
		if !bytes.HasPrefix(rec[pos:], d) {
			return nil, 0, fmt.Errorf("layout: no delimiter for property %q at %d", s.ids[i], pos)
		}
		pos += len(d)
		n := bytes.IndexByte(rec[pos:], s.NextDelimiter(i)[0])
		if n < 0 {
			return nil, 0, fmt.Errorf("layout: property %q runs past the list", s.ids[i])
		}
		if n > 0 {
			props[s.ids[i]] = string(rec[pos : pos+n])
		}
		pos += n
	}
	if pos == len(rec) || rec[pos] != EndOfRecord {
		return nil, 0, fmt.Errorf("layout: missing end-of-record delimiter")
	}
	return props, pos + 1, nil
}
