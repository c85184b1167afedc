// Package layout implements ZipG's graph representation (§3.3 of the
// paper): the NodeFile and EdgeFile flat-file layouts, the delimiter
// scheme for property IDs, and the fixed-width numeric encodings that
// trade uncompressed size for random access into the compressed form.
//
// Layout views are written against a ByteSource abstraction so the exact
// same query code runs over a compressed succinct store (immutable
// shards) and over raw append-only bytes (the query-optimized LogStore of
// §3.5).
package layout

import (
	"bytes"
	"fmt"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
	"zipg/internal/succinct"
)

// ByteSource is the storage primitive the NodeFile/EdgeFile views query:
// random access (extract) and substring search, per Succinct's interface
// (§3.1).
type ByteSource interface {
	// Extract returns up to n bytes starting at off (truncated at EOF).
	Extract(off, n int) []byte
	// Search returns the offsets of all occurrences of pattern, ascending.
	Search(pattern []byte) []int64
	// Count returns the number of occurrences of pattern.
	Count(pattern []byte) int
	// InputLen returns the length of the underlying flat file.
	InputLen() int
}

// Compile-time check: the succinct store satisfies ByteSource.
var _ ByteSource = (*succinct.Store)(nil)

// byteAppender is the optional zero-alloc extension of ByteSource:
// extract into a caller-supplied buffer instead of allocating the result.
// Both backing sources implement it; extractAppend falls back for any
// other ByteSource.
type byteAppender interface {
	ExtractAppend(dst []byte, off, n int) []byte
}

var (
	_ byteAppender = (*succinct.Store)(nil)
	_ byteAppender = (*RawSource)(nil)
)

// extractAppend appends up to n bytes at off to dst, reusing dst's
// capacity when the source supports it.
func extractAppend(src ByteSource, dst []byte, off, n int) []byte {
	if a, ok := src.(byteAppender); ok {
		return a.ExtractAppend(dst, off, n)
	}
	return append(dst, src.Extract(off, n)...)
}

// recWalk reads one record's bytes front to back over any ByteSource.
// Over a succinct store it wraps a Walker, so parsing a record's header,
// skipping to a field and reading the field is a single suffix-array walk
// (one ISA anchor) instead of one anchor per Extract call; over raw bytes
// it is plain offset arithmetic. A recWalk is a value: keep it on the
// stack, or with the one reader whose cursor it is (EdgeRecordRef.cur).
type recWalk struct {
	sw  succinct.Walker // valid iff ss != nil
	ss  *succinct.Store
	src ByteSource // fallback path
	off int        // fallback read position
}

// newRecWalk starts a walk at flat-file offset off.
func newRecWalk(src ByteSource, off int) recWalk {
	if s, ok := src.(*succinct.Store); ok {
		return recWalk{ss: s, sw: s.Walk(off)}
	}
	return recWalk{src: src, off: off}
}

// appendN reads the next n bytes into dst (truncated at EOF) and
// advances.
func (r *recWalk) appendN(dst []byte, n int) []byte {
	if r.ss != nil {
		return r.sw.Append(dst, n)
	}
	before := len(dst)
	dst = extractAppend(r.src, dst, r.off, n)
	r.off += len(dst) - before
	return dst
}

// skip advances n bytes without reading them.
func (r *recWalk) skip(n int) {
	if r.ss != nil {
		r.sw.Skip(n)
		return
	}
	r.off += n
}

// seek moves to file offset off. Forward the move is a skip, which steps
// on or re-anchors, whichever is cheaper; backward it is an anchor.
func (r *recWalk) seek(off int) {
	if r.ss != nil {
		r.sw.SeekTo(off)
	} else {
		r.off = off
	}
}

// readAt seeks to file offset off and reads exactly n bytes into buf[:0].
// A source that ends before n bytes is an error: a field array a record's
// header promised is not there.
func (r *recWalk) readAt(buf []byte, off, n int) ([]byte, error) {
	r.seek(off)
	buf = r.appendN(buf[:0], n)
	if len(buf) < n {
		return buf, fmt.Errorf("layout: short read at offset %d: %d of %d bytes", off, len(buf), n)
	}
	return buf, nil
}

// RawSource is an uncompressed ByteSource over a plain byte slice,
// charging a simulated medium, if it has one, for every touch. Only
// tests use it: it is their ground truth against the compressed path.
type RawSource struct {
	data []byte
	med  *memsim.Medium
	reg  uint32
}

// NewRawSource places data on med; nil means plain memory, with no
// access accounting at all.
func NewRawSource(data []byte, med *memsim.Medium) *RawSource {
	r := &RawSource{data: data, med: med}
	if med != nil {
		r.reg = med.Register(int64(len(data)))
	}
	return r
}

// chargeAt bills a touch of n bytes at off.
func (r *RawSource) chargeAt(off, n int) {
	if r.med != nil {
		r.med.Access(r.reg, int64(off), int64(n))
	}
}

// Append adds bytes to the source and returns the offset at which they
// were written.
func (r *RawSource) Append(b []byte) int64 {
	off := int64(len(r.data))
	r.data = append(r.data, b...)
	if r.med != nil {
		r.med.Grow(int64(len(b)))
	}
	return off
}

// Extract implements ByteSource.
func (r *RawSource) Extract(off, n int) []byte {
	if off < 0 || off >= len(r.data) || n <= 0 {
		return nil
	}
	end := off + n
	if end > len(r.data) {
		end = len(r.data)
	}
	r.chargeAt(off, end-off)
	return r.data[off:end]
}

// ExtractAppend appends up to n bytes starting at off to dst.
func (r *RawSource) ExtractAppend(dst []byte, off, n int) []byte {
	return append(dst, r.Extract(off, n)...)
}

// Search implements ByteSource by linear scan. The scan charges the
// medium for the full pass — this is exactly the cost profile the paper
// ascribes to scanning uncompressed logs, and why the LogStore keeps
// explicit offset pointers to avoid calling this.
func (r *RawSource) Search(pattern []byte) []int64 {
	if len(pattern) == 0 {
		return nil
	}
	r.chargeAt(0, len(r.data))
	var out []int64
	for i := 0; ; {
		k := bytes.Index(r.data[i:], pattern)
		if k < 0 {
			break
		}
		out = append(out, int64(i+k))
		i += k + 1
	}
	return out
}

// Count implements ByteSource.
func (r *RawSource) Count(pattern []byte) int { return len(r.Search(pattern)) }

// InputLen implements ByteSource.
func (r *RawSource) InputLen() int { return len(r.data) }

// Bytes exposes the raw backing slice (used when freezing a LogStore
// into a compressed shard).
func (r *RawSource) Bytes() []byte { return r.data }

// offsetToIndex translates a flat-file offset to the index of the record
// containing it, given the sorted record start offsets: the greatest i
// with starts[i] <= off.
func offsetToIndex(starts []int64, off int64) int {
	return bitutil.SearchGT(starts, off) - 1
}
