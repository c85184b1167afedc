// Package suffix implements suffix-array construction. The production
// path is SA-IS (Nong, Zhang, Chan 2009), which runs in linear time and
// is what makes building the succinct representation of multi-megabyte
// NodeFiles and EdgeFiles practical. A naive O(n^2 log n) reference
// implementation is provided for differential testing.
//
// The sort works inside the array it returns. Suffix types are never
// tabulated: every scan knows the type of the suffix it holds, decides
// the type of the one before it from two symbols, and records the answer
// in the sign of the entry it writes (the device of Yuta Mori's
// sais-lite, also used by index/suffixarray). The names of the LMS
// substrings, the reduced string and its suffix array all live in the
// part of the array the sorted LMS suffixes leave free, and the
// recursion takes its bucket tables from there too when they fit (they
// do unless nearly every other position is an LMS position), so beyond
// the result a sort allocates two 256-entry tables.
package suffix

import (
	"fmt"
	"math"
	"slices"
)

// Array computes the suffix array of text. The returned slice sa has
// length len(text)+1: position 0 corresponds to the implicit empty
// suffix/sentinel, mirroring the convention of the succinct literature
// where a unique smallest sentinel terminates the text. text may contain
// any byte values including 0; the sentinel is logically smaller than
// every byte.
//
// Entries are int32, so len(text) must be below math.MaxInt32; Array
// panics on a longer text.
func Array(text []byte) []int32 {
	checkLen(len(text))
	// With a sentinel below every byte, a suffix that is a proper prefix
	// of another sorts first, which is the order sais produces: the
	// result is the sentinel's own suffix, then the suffix array of text.
	sa := make([]int32, len(text)+1)
	sa[0] = int32(len(text))
	sais(text, 256, sa[1:], make([]int32, 2*256))
	return sa
}

// checkLen panics unless a text of n bytes and its sentinel can be
// indexed with int32.
func checkLen(n int) {
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("suffix: text of %d bytes: Array indexes with int32 and takes at most %d", n, math.MaxInt32-1))
	}
}

// symbol is what a text is made of: bytes at the top level, the int32
// names of LMS substrings in the recursion.
type symbol interface{ byte | int32 }

// sais writes into sa the starts of text's suffixes in sorted order,
// a proper prefix before what it is a prefix of: the text ends in an
// implicit sentinel below every symbol, at position len(text), which has
// no entry in sa. Symbols lie in [0, sigma). sa must be zeroed and as
// long as text; tmp must hold 2*sigma entries and is overwritten.
//
// Position i is S-type when its suffix is smaller than the one at i+1
// and L-type when it is larger; the sentinel is S-type, so the last
// symbol is always L-type. An LMS position is an S-type position after
// an L-type one, and an LMS substring runs from one LMS position through
// the next (the last one through the sentinel). During the scans an
// entry of 0 is an empty slot — position 0 is never one that a scan has
// to act on — and a negative entry is a position that the scan in hand
// leaves for the next one.
func sais[T symbol](text []T, sigma int, sa, tmp []int32) {
	n := len(text)
	if n < 2 {
		return // sa is [] or the zeroed [0]
	}
	freq, bucket := tmp[:sigma], tmp[sigma:2*sigma]
	clear(freq)
	for _, c := range text {
		freq[c]++
	}

	m := placeLMS(text, sa, freq, bucket)
	if m > 1 {
		// Sort the LMS substrings, name them in that order, and if two
		// share a name sort the string of names to order the suffixes
		// they start.
		induceSubL(text, sa, freq, bucket)
		induceSubS(text, sa, freq, bucket)
		sorted := sa[n-m:]
		if names := nameLMS(text, sa, m); names < m {
			reduced, subSA, spare := sorted, sa[:m], sa[m:n-m]
			gatherNames(sa, m)
			if len(spare) < 2*names {
				spare = make([]int32, 2*names)
			}
			clear(subSA)
			sais(reduced, names, subSA, spare)
			lmsPositions(text, reduced)
			for i, r := range subSA {
				subSA[i] = reduced[r]
			}
		} else {
			copy(sa, sorted)
		}
		spreadLMS(text, sa, freq, bucket, m)
	}
	induceL(text, sa, freq, bucket)
	induceS(text, sa, freq, bucket)
}

// bucketStarts sets bucket[c] to the first row of symbol c's bucket.
func bucketStarts(freq, bucket []int32) {
	row := int32(0)
	for c, k := range freq {
		bucket[c] = row
		row += k
	}
}

// bucketEnds sets bucket[c] to the row after the last of symbol c's
// bucket.
func bucketEnds(freq, bucket []int32) {
	row := int32(0)
	for c, k := range freq {
		row += k
		bucket[c] = row
	}
}

// placeLMS puts every LMS position at the end of its symbol's bucket, in
// text order within a bucket, and returns how many there are. The
// sentinel's position is not among them.
//
// The backward scan here recurs in nameLMS and lmsPositions: c0 and c1
// are the symbols at i and i+1, and succS says whether i+1 is S-type. It
// starts false although the sentinel is S-type, which is what keeps the
// sentinel from being reported as an LMS position.
func placeLMS[T symbol](text []T, sa, freq, bucket []int32) int {
	bucketEnds(freq, bucket)
	m := 0
	var c1 T
	succS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			succS = true
		} else if c0 > c1 && succS {
			succS = false // i is L-type and i+1 S-type
			bucket[c1]--
			sa[bucket[c1]] = int32(i + 1)
			m++
		}
		c1 = c0
	}
	return m
}

// induceSubL is the left-to-right scan of the LMS substring sort. On
// entry sa holds the LMS positions at their bucket ends. A positive
// entry j says that j-1 is L-type; the scan puts j-1 at the front of its
// bucket — negated when j-2 is S-type, since then j-1 is where the
// right-to-left scan takes over — and empties the slot. On return sa
// holds only those handed-over positions, positive again.
func induceSubL[T symbol](text []T, sa, freq, bucket []int32) {
	bucketStarts(freq, bucket)
	// The sentinel's suffix is the smallest and has no slot; it induces
	// the last position, which is L-type.
	k := int32(len(text) - 1)
	cur := text[k]
	if text[k-1] < cur {
		k = -k
	}
	// b stands in for bucket[cur] while cur is the bucket in use. Suffixes
	// next to each other in sorted order mostly follow the same symbol,
	// and a cursor held in a register keeps the address of this store from
	// waiting on the load of text[k] — and with it every later load that
	// might alias the store.
	b := bucket[cur]
	sa[b] = k
	b++
	for i, j := range sa {
		if j == 0 {
			continue
		}
		if j < 0 {
			sa[i] = -j
			continue
		}
		sa[i] = 0
		k := j - 1
		c := text[k]
		if k > 0 && text[k-1] < c {
			k = -k
		}
		if c != cur {
			bucket[cur] = b
			cur, b = c, bucket[c]
		}
		sa[b] = k // a 0 is position 0: nothing precedes it, drop it
		b++
	}
}

// induceSubS is the right-to-left scan of the LMS substring sort. A
// positive entry j says that j-1 is S-type; the scan puts j-1 at the
// back of its bucket — negated when j-2 is L-type, which makes j-1 an
// LMS position — and empties the slot. A negated entry is met again
// further down, in the order of the LMS substrings, and is moved to the
// top of sa: on return sa[len(sa)-m:] holds the LMS positions sorted by
// LMS substring and the rest is zero.
func induceSubS[T symbol](text []T, sa, freq, bucket []int32) {
	bucketEnds(freq, bucket)
	var cur T
	b := bucket[cur] // bucket[cur], as in induceSubL
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j == 0 {
			continue
		}
		sa[i] = 0
		if j < 0 {
			top--
			sa[top] = -j
			continue
		}
		k := j - 1
		c := text[k]
		if k > 0 && text[k-1] > c {
			k = -k
		}
		if c != cur {
			bucket[cur] = b
			cur, b = c, bucket[c]
		}
		b--
		sa[b] = k
	}
}

// nameLMS numbers the LMS substrings from 1 in sorted order, equal
// substrings alike, and returns the last number used. sa[len(sa)-m:]
// holds the LMS positions sorted by substring and the rest is zero; the
// name of the substring at j is left in sa[j/2]. Two LMS positions are
// at least two apart, and there are at most len(sa)/2 of them, so those
// slots are distinct and below the sorted positions.
func nameLMS[T symbol](text []T, sa []int32, m int) int {
	// First the key of each substring (see lmsKey), in the slot its name
	// will take. The last substring takes in the sentinel, so it equals
	// no other: key 0 says so without a symbol to compare.
	end := 0
	var c1 T
	succS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			succS = true
		} else if c0 > c1 && succS {
			succS = false
			j := i + 1
			if end > 0 {
				sa[j/2] = lmsKey(text[j : end+1])
			}
			end = j
		}
		c1 = c0
	}

	// Substrings of one length that agree symbol for symbol also agree
	// in type at every position, since both end at an S-type position.
	name := 0
	var prev, prevKey int32
	for _, j := range sa[len(sa)-m:] {
		key := sa[j/2]
		same := key == prevKey && key != 0
		if same && key > 0 {
			same = slices.Equal(text[j:j+key], text[prev:prev+key])
		}
		if !same {
			name++
			prev, prevKey = j, key
		}
		sa[j/2] = int32(name)
	}
	return name
}

// lmsKey returns what nameLMS compares first of an LMS substring. Most
// LMS substrings of a text over bytes are three or four symbols long,
// and the sorted order visits them at random: when three symbols, or
// four of which the first is below 0x7F, fit a byte each, the key is the
// substring itself, negative, and equal keys need no look at the text.
// Otherwise it is the length, positive.
func lmsKey[T symbol](sub []T) int32 {
	const packed = math.MinInt32
	switch len(sub) {
	case 3:
		if int32(sub[0]|sub[1]|sub[2]) < 1<<8 {
			return packed | int32(sub[0])<<16 | int32(sub[1])<<8 | int32(sub[2])
		}
	case 4:
		if sub[0] < 0x7F && int32(sub[1]|sub[2]|sub[3]) < 1<<8 {
			return packed | (int32(sub[0])+1)<<24 | int32(sub[1])<<16 | int32(sub[2])<<8 | int32(sub[3])
		}
	}
	return int32(len(sub))
}

// gatherNames packs the names nameLMS left in the lower half of sa into
// sa[len(sa)-m:], in text order and counted from 0: the reduced string.
// Reading and writing both move down, the write index always the higher.
func gatherNames(sa []int32, m int) {
	w := len(sa)
	for i := (len(sa) - 1) / 2; i >= 0; i-- {
		if name := sa[i]; name > 0 {
			w--
			sa[w] = name - 1
		}
	}
}

// lmsPositions fills dst with the LMS positions of text in text order;
// dst has one slot for each.
func lmsPositions[T symbol](text []T, dst []int32) {
	w := len(dst)
	var c1 T
	succS := false
	for i := len(text) - 1; i >= 0; i-- {
		c0 := text[i]
		if c0 < c1 {
			succS = true
		} else if c0 > c1 && succS {
			succS = false
			w--
			dst[w] = int32(i + 1)
		}
		c1 = c0
	}
}

// spreadLMS moves the LMS positions, sorted by suffix in sa[:m], to the
// ends of their buckets and zeroes every other slot. The largest goes
// first and none moves down, so no move lands on one still to be made.
func spreadLMS[T symbol](text []T, sa, freq, bucket []int32, m int) {
	clear(sa[m:])
	bucketEnds(freq, bucket)
	for i := m - 1; i >= 0; i-- {
		j := sa[i]
		sa[i] = 0
		c := text[j]
		bucket[c]--
		sa[bucket[c]] = j
	}
}

// induceL is the left-to-right scan of the final sort. On entry sa
// holds the sorted LMS positions at their bucket ends. A positive entry
// j says that j-1 is L-type; the scan puts j-1 at the front of its
// bucket, negated when j-2 is S-type, and leaves every entry in place.
func induceL[T symbol](text []T, sa, freq, bucket []int32) {
	bucketStarts(freq, bucket)
	k := int32(len(text) - 1)
	cur := text[k]
	if text[k-1] < cur {
		k = -k
	}
	b := bucket[cur] // bucket[cur], as in induceSubL
	sa[b] = k
	b++
	for _, j := range sa {
		if j <= 0 {
			continue
		}
		k := j - 1
		c := text[k]
		if k > 0 && text[k-1] < c {
			k = -k
		}
		if c != cur {
			bucket[cur] = b
			cur, b = c, bucket[c]
		}
		sa[b] = k
		b++
	}
}

// induceS is the right-to-left scan of the final sort. A negated entry
// j says that j-1 is S-type; the scan makes the entry positive and puts
// j-1 at the back of its bucket, negated when j-2 is S-type too. That
// overwrites the LMS positions induceL started from, each before the
// scan reaches its slot, and leaves every position in sa, positive.
func induceS[T symbol](text []T, sa, freq, bucket []int32) {
	bucketEnds(freq, bucket)
	var cur T
	b := bucket[cur] // bucket[cur], as in induceSubL
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j >= 0 {
			continue
		}
		j = -j
		sa[i] = j
		k := j - 1
		c := text[k]
		if k > 0 && text[k-1] <= c {
			k = -k
		}
		if c != cur {
			bucket[cur] = b
			cur, b = c, bucket[c]
		}
		b--
		sa[b] = k
	}
}
