package succinct

// AppendLanes is Walker.Append stepping at most k ≤ maxWalkLanes chains
// at once: BenchmarkWalkerLanes sweeps k to pick walkLanes.
func (w *Walker) AppendLanes(dst []byte, n, k int) []byte { return w.appendLanes(dst, n, k) }
