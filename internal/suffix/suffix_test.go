package suffix

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func checkAgainstNaive(t *testing.T, text []byte) {
	t.Helper()
	got := Array(text)
	want := NaiveArray(text)
	if len(got) != len(want) {
		t.Fatalf("len mismatch for %q: got %d, want %d", text, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SA mismatch for %q at %d: got %v, want %v", text, i, got, want)
		}
	}
}

func TestArrayKnown(t *testing.T) {
	// Classic example: banana. Suffix order with sentinel:
	// "", a, ana, anana, banana, na, nana.
	got := Array([]byte("banana"))
	want := []int32{6, 5, 3, 1, 0, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("banana SA = %v, want %v", got, want)
		}
	}
}

func TestArraySmall(t *testing.T) {
	cases := []string{
		"", "a", "aa", "ab", "ba", "aaa", "abab", "mississippi",
		"abracadabra", "zzzzzzzz", "abcabcabc", "cacao",
	}
	for _, c := range cases {
		checkAgainstNaive(t, []byte(c))
	}
}

func TestArrayWithZeroBytes(t *testing.T) {
	// The text may legitimately contain 0x00; the sentinel must still sort
	// below it.
	checkAgainstNaive(t, []byte{0, 1, 0, 2, 0, 0, 3})
	checkAgainstNaive(t, []byte{0, 0, 0})
	checkAgainstNaive(t, []byte{255, 0, 255, 0})
}

func TestArrayRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500)
		sigma := 1 + rng.Intn(8)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.Intn(sigma))
		}
		checkAgainstNaive(t, text)
	}
}

func TestArrayRandomFullAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		text := make([]byte, 300+rng.Intn(300))
		rng.Read(text)
		checkAgainstNaive(t, text)
	}
}

func TestArrayIsPermutationAndSorted(t *testing.T) {
	// Property: Array returns a permutation of [0,n] whose suffixes are in
	// strictly increasing order.
	f := func(text []byte) bool {
		if len(text) > 2000 {
			text = text[:2000]
		}
		sa := Array(text)
		n := len(text) + 1
		seen := make([]bool, n)
		for _, p := range sa {
			if p < 0 || int(p) >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		for i := 1; i < n; i++ {
			a, b := text[sa[i-1]:], text[sa[i]:]
			if c := bytes.Compare(a, b); c > 0 || (c == 0 && len(a) >= len(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArrayLargeRepetitive(t *testing.T) {
	// Highly repetitive input exercises deep SA-IS recursion.
	text := bytes.Repeat([]byte("abcabd"), 5000)
	sa := Array(text)
	n := len(text) + 1
	if len(sa) != n {
		t.Fatalf("len = %d, want %d", len(sa), n)
	}
	// Spot check sortedness at random positions rather than O(n^2) full check.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		i := 1 + rng.Intn(n-1)
		a, b := text[sa[i-1]:], text[sa[i]:]
		limit := 50
		if len(a) < limit {
			limit = len(a)
		}
		if len(b) < limit {
			limit = len(b)
		}
		if c := bytes.Compare(a[:limit], b[:limit]); c > 0 {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

// fibonacciWord returns the first n bytes of the Fibonacci word over
// {a, b}.
func fibonacciWord(n int) []byte {
	prev, cur := []byte("b"), []byte("a")
	for len(cur) < n {
		prev, cur = cur, append(cur[:len(cur):len(cur)], prev...)
	}
	return cur[:n]
}

// thueMorse returns the first n bytes of the Thue–Morse word over {a, b}:
// symbol i is the parity of the number of set bits in i.
func thueMorse(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = 'a' + byte(bits.OnesCount(uint(i))&1)
	}
	return out
}

// recursionDepth returns how many levels below the top the sort of text
// recurses, by taking the sort's own steps as far as the reduced string.
func recursionDepth[T symbol](text []T, sigma int) int {
	n := len(text)
	if n < 2 {
		return 0
	}
	sa, tmp := make([]int32, n), make([]int32, 2*sigma)
	freq, bucket := tmp[:sigma], tmp[sigma:]
	for _, c := range text {
		freq[c]++
	}
	m := placeLMS(text, sa, freq, bucket)
	if m < 2 {
		return 0
	}
	induceSubL(text, sa, freq, bucket)
	induceSubS(text, sa, freq, bucket)
	names := nameLMS(text, sa, m)
	if names == m {
		return 0
	}
	gatherNames(sa, m)
	return 1 + recursionDepth(sa[n-m:], names)
}

// TestArrayAdversarial runs the inputs that reach the corners of the
// sort — no LMS position, one, every other position, buckets of one
// symbol, the recursion several levels deep — against the oracle.
func TestArrayAdversarial(t *testing.T) {
	cases := map[string][]byte{
		"len0":             {},
		"len1-00":          {0x00},
		"len1-ff":          {0xFF},
		"len2-rising":      {0x00, 0xFF},
		"len2-falling":     {0xFF, 0x00},
		"len2-equal":       {0x7F, 0x7F},
		"len3-valley":      {2, 1, 2},
		"len3-peak":        {1, 2, 1},
		"len3-00":          {0, 0, 0},
		"run-00":           make([]byte, 700),
		"run-ff":           bytes.Repeat([]byte{0xFF}, 700),
		"ends-in-smallest": append(bytes.Repeat([]byte("cab"), 100), 'a'),
		"ends-in-largest":  append(bytes.Repeat([]byte("cab"), 100), 'z'),
		"ends-in-00":       append(bytes.Repeat([]byte{3, 0, 7}, 100), 0),
		"ends-in-ff":       append(bytes.Repeat([]byte{3, 0, 7}, 100), 0xFF),
		"period2":          bytes.Repeat([]byte("ab"), 400),
		"period2-ba":       bytes.Repeat([]byte("ba"), 400),
		"period3":          bytes.Repeat([]byte("aab"), 300),
		"period7":          bytes.Repeat([]byte("abacabb"), 150),
		"period-00-ff":     bytes.Repeat([]byte{0x00, 0xFF}, 400),
		"fibonacci":        fibonacciWord(1597),
		"thue-morse":       thueMorse(1024),
		"thue-morse-odd":   thueMorse(1531),
		// Every LMS substring occurs again: the names say nothing until
		// the recursion has compared what follows them.
		"lms-all-repeat": bytes.Repeat([]byte("bacbacbadbad"), 60),
		"rising":         []byte("abcdefghijklmnopqrstuvwxyz"),
		"falling":        []byte("zyxwvutsrqponmlkjihgfedcba"),
		"plateaus":       []byte("aaabbbaaabbbcccbbbaaa"),
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstNaive(t, text) })
	}
	for _, name := range []string{"fibonacci", "thue-morse"} {
		if d := recursionDepth(cases[name], 256); d < 3 {
			t.Errorf("%s recurses %d deep, want at least 3", name, d)
		}
	}
}

func TestArrayRefusesOversizeText(t *testing.T) {
	checkLen(math.MaxInt32 - 1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "int32") {
			t.Errorf("a text of MaxInt32 bytes: recovered %q, want a panic naming the int32 limit", msg)
		}
	}()
	checkLen(math.MaxInt32)
}

// FuzzArray compares Array with the oracle on whatever the fuzzer finds
// (capped at 4 KiB: the oracle is quadratic). The adversarial shapes are
// seeds under testdata/fuzz/FuzzArray.
func FuzzArray(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("banana"))
	f.Add([]byte("mississippi"))
	f.Fuzz(func(t *testing.T, text []byte) {
		if len(text) > 4<<10 {
			text = text[:4<<10]
		}
		got, want := Array(text), NaiveArray(text)
		if !slices.Equal(got, want) {
			t.Fatalf("Array(%q) = %v, want %v", text, got, want)
		}
	})
}
