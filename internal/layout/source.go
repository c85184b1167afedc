// Package layout implements ZipG's graph representation (§3.3 of the
// paper): the NodeFile and EdgeFile flat-file layouts, the delimiter
// scheme for property IDs, and the fixed-width numeric encodings that
// trade uncompressed size for random access into the compressed form.
//
// Layout views are written against a ByteSource abstraction: the store
// runs them over the compressed succinct store of each immutable shard,
// and the tests run the same query code over RawSource, plain bytes, as
// the uncompressed reference.
package layout

import (
	"bytes"
	"fmt"

	"zipg/internal/bitutil"
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

// RawSource is an uncompressed ByteSource over a plain byte slice. Only
// tests use it: it is their ground truth against the compressed path.
type RawSource struct {
	data []byte
}

// NewRawSource serves data.
func NewRawSource(data []byte) *RawSource { return &RawSource{data: data} }

// Extract implements ByteSource.
func (r *RawSource) Extract(off, n int) []byte {
	if off < 0 || off >= len(r.data) || n <= 0 {
		return nil
	}
	return r.data[off:min(off+n, len(r.data))]
}

// ExtractAppend appends up to n bytes starting at off to dst.
func (r *RawSource) ExtractAppend(dst []byte, off, n int) []byte {
	return append(dst, r.Extract(off, n)...)
}

// Search implements ByteSource by linear scan.
func (r *RawSource) Search(pattern []byte) []int64 {
	if len(pattern) == 0 {
		return nil
	}
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

// offsetToIndex translates a flat-file offset to the index of the record
// containing it, given the sorted record start offsets: the greatest i
// with starts[i] <= off.
func offsetToIndex(starts []int64, off int64) int {
	return bitutil.SearchGT(starts, off) - 1
}
