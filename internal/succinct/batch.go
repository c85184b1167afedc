package succinct

import (
	"sort"

	"zipg/internal/telemetry"
)

// WalkBatch visits every requested text offset with one shared walker,
// in ascending offset order (ties keep caller order), calling visit with
// the caller's index each time. The walker carries its suffix-array row
// across requests: visit may read and skip forward freely, and the move
// to the next request continues the walk when that is cheaper than a
// fresh ISA anchor, so nearby records stop paying one full anchor walk
// each. Ψ is evaluated exactly as a scalar Walk evaluates it.
//
// The contract mirrors Walk: offsets are clamped to the text. visit must
// not retain w past its return, and results derived inside visit appear
// in whatever order the caller indexes them — WalkBatch itself imposes
// only the visiting order.
func (s *Store) WalkBatch(offs []int, visit func(idx int, w *Walker)) {
	if len(offs) == 0 {
		return
	}
	if telemetry.Enabled() {
		mBatchRequests.Add(int64(len(offs)))
	}
	if len(offs) == 1 {
		w := s.Walk(offs[0])
		visit(0, &w)
		return
	}
	order := make([]int, len(offs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return offs[order[a]] < offs[order[b]] })
	w := s.Walk(offs[order[0]])
	for k, idx := range order {
		if k > 0 {
			w.SeekTo(offs[idx])
		}
		visit(idx, &w)
	}
}
