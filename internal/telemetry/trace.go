// Distributed tracing: 128-bit trace identities threaded through
// context.Context, a wire-portable TraceContext the rpc layer puts in
// its frame envelope, a bounded per-trace span table, and the assembler
// that stitches local + remote spans into one tree (/debug/trace/{id}).
//
// Sampling semantics: the process that originates a query makes the
// sampling decision (one per DefaultSpanSampling eligible queries);
// every downstream server honors the propagated decision — a sampled
// trace is sampled everywhere, an unsampled trace starts no spans
// anywhere, so a trace is always complete or absent, never partial.
// Failing operations are exempt: error spans are recorded regardless.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace-layer series. Locked by the golden exposition test — renaming
// any of these fails CI.
var (
	mTraceSpans = NewCounter("zipg_trace_spans_total",
		"Spans recorded into the per-trace span table.")
	mTraceErrSpans = NewCounter("zipg_trace_error_spans_total",
		"Spans that ended with an error (always recorded, sampling-exempt).")
	mTraceSlow = NewCounter("zipg_trace_slow_total",
		"Spans admitted to the slow-query ring (slow or failed).")
)

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// MarshalJSON renders the ID as a hex string.
func (id TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON parses the hex form.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseTraceID(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("telemetry: trace ID must be 32 hex digits, got %q", s)
	}
	var id TraceID
	if _, err := fmt.Sscanf(s[:16], "%016x", &id.Hi); err != nil {
		return TraceID{}, fmt.Errorf("telemetry: bad trace ID %q: %w", s, err)
	}
	if _, err := fmt.Sscanf(s[16:], "%016x", &id.Lo); err != nil {
		return TraceID{}, fmt.Errorf("telemetry: bad trace ID %q: %w", s, err)
	}
	return id, nil
}

// newTraceID mints a random non-zero 128-bit ID. math/rand/v2's global
// generator is goroutine-safe and seeded per-process; IDs only need to
// be unique within a deployment's trace-retention window.
func newTraceID() TraceID {
	for {
		id := TraceID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

// newSpanID mints a random non-zero span ID (0 means "no parent").
func newSpanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// TraceContext is the wire form of a trace: what one server must tell
// another for the callee's spans to join the caller's trace and for the
// caller's deadline to be enforced remotely. The rpc frame envelope
// carries exactly these fields.
type TraceContext struct {
	Trace    TraceID
	SpanID   uint64 // caller's span — the parent of every callee span
	Deadline int64  // absolute deadline, Unix nanoseconds (0: none)
	Sampled  bool   // the originator's sampling decision
}

// ctxKey keys telemetry values in a context.Context.
type ctxKey int

const (
	spanKey  ctxKey = iota // *Span: the active span
	traceKey               // TraceContext: an incoming (possibly unsampled) trace
)

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// ContextWithRemoteTrace returns a context carrying an incoming trace
// decision (the rpc server installs this for every request, sampled or
// not, so downstream spans honor the originator's decision instead of
// re-sampling locally).
func ContextWithRemoteTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey, tc)
}

// TraceFromContext returns the incoming trace decision, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceKey).(TraceContext)
	return tc, ok
}

// PhaseFromContext begins a named phase on the context's active span
// and returns the function that ends it (a shared no-op when untraced).
func PhaseFromContext(ctx context.Context, name string) func() {
	return SpanFromContext(ctx).Phase(name)
}

// StartSpanCtx begins a span for op under ctx and returns it together
// with a derived context carrying it as the active span. The span's
// place in the tree follows from the context:
//
//   - an active span present: child of it (same trace, same server);
//   - an incoming TraceContext present: child of the remote caller's
//     span if the trace is sampled, nil otherwise (the originator's
//     decision is final — no local re-sampling mid-trace);
//   - neither: a fresh root, subject to the local sampling period.
//
// Returns (nil, ctx) while telemetry is disabled or the span is not
// traced; all Span methods are nil-safe.
func StartSpanCtx(ctx context.Context, op string) (*Span, context.Context) {
	if !enabled.Load() {
		return nil, ctx
	}
	if parent := SpanFromContext(ctx); parent != nil {
		sp := &Span{
			Op:       op,
			Trace:    parent.Trace,
			SpanID:   newSpanID(),
			ParentID: parent.SpanID,
			Server:   parent.Server,
			Start:    time.Now(),
			sampled:  true,
		}
		parent.addChild(sp)
		return sp, ContextWithSpan(ctx, sp)
	}
	if tc, ok := TraceFromContext(ctx); ok {
		if !tc.Sampled {
			return nil, ctx
		}
		sp := startRemoteChild(tc, op, -1)
		return sp, ContextWithSpan(ctx, sp)
	}
	if !sampleTick() {
		return nil, ctx
	}
	sp := newRootSpan(op)
	return sp, ContextWithSpan(ctx, sp)
}

// StartRemoteSpan opens a span as the direct child of a propagated
// trace context — what the rpc server does for each traced request.
// Returns nil when the trace is unsampled or telemetry is off. server
// is the callee's cluster ID (-1 unknown).
func StartRemoteSpan(tc TraceContext, op string, server int) *Span {
	if !enabled.Load() || !tc.Sampled {
		return nil
	}
	return startRemoteChild(tc, op, server)
}

// StartServerRootSpan begins a server-local root span for a request
// that arrived without a trace header (a trace-unaware or
// telemetry-disabled client). The server falls back to its own
// sampling decision so the flight recorder and trace table still see
// 1-in-N of legacy traffic instead of none of it.
func StartServerRootSpan(op string, server int) *Span {
	if !enabled.Load() || !sampleTick() {
		return nil
	}
	sp := newRootSpan(op)
	sp.Server = server
	return sp
}

func startRemoteChild(tc TraceContext, op string, server int) *Span {
	return &Span{
		Op:           op,
		Trace:        tc.Trace,
		SpanID:       newSpanID(),
		ParentID:     tc.SpanID,
		Server:       server,
		Start:        time.Now(),
		sampled:      true,
		remoteParent: true,
	}
}

// OutgoingTrace derives the wire trace header for an RPC issued under
// ctx with sp as the caller-side span (nil when untraced). The deadline
// comes from the context; the trace identity from the span, falling
// back to the incoming trace so an unsampled decision still propagates.
func OutgoingTrace(ctx context.Context, sp *Span) TraceContext {
	var tc TraceContext
	if sp != nil {
		tc.Trace, tc.SpanID, tc.Sampled = sp.Trace, sp.SpanID, true
	} else if prev, ok := TraceFromContext(ctx); ok {
		tc.Trace, tc.SpanID, tc.Sampled = prev.Trace, prev.SpanID, prev.Sampled
	}
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			tc.Deadline = dl.UnixNano()
		}
	}
	return tc
}

// --- per-trace span table ---

// maxTraces bounds how many distinct traces are retained (FIFO
// eviction); maxSpansPerTrace bounds one trace's span count so a
// runaway fan-out cannot hold the table hostage.
const (
	maxTraces        = 256
	maxSpansPerTrace = 512
)

type traceEntry struct {
	spans []Span
	ids   map[uint64]bool
}

// traceTable holds finished spans grouped by trace for the assembler.
// In-process loopback clusters share one table across all servers; in a
// multi-process deployment each server's table holds the spans it saw,
// and the aggregator's table holds the full tree (remote spans are
// shipped back in RPC responses and re-recorded under the caller).
type traceTable struct {
	mu    sync.Mutex
	byID  map[TraceID]*traceEntry
	order []TraceID
}

var traces = traceTable{byID: make(map[TraceID]*traceEntry)}

func (t *traceTable) add(sp Span) {
	if sp.Trace.IsZero() || sp.SpanID == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byID[sp.Trace]
	if e == nil {
		if len(t.order) >= maxTraces {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.byID, oldest)
		}
		e = &traceEntry{ids: make(map[uint64]bool)}
		t.byID[sp.Trace] = e
		t.order = append(t.order, sp.Trace)
	}
	// Dedup by span ID: in-process clusters record a server-side span
	// locally AND receive it back in the RPC response.
	if e.ids[sp.SpanID] || len(e.spans) >= maxSpansPerTrace {
		return
	}
	e.ids[sp.SpanID] = true
	e.spans = append(e.spans, sp)
	mTraceSpans.Inc()
}

func (t *traceTable) get(id TraceID) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byID[id]
	if e == nil {
		return nil
	}
	return append([]Span(nil), e.spans...)
}

func (t *traceTable) recent(n int) []TraceID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.order) {
		n = len(t.order)
	}
	out := make([]TraceID, 0, n)
	for i := len(t.order) - 1; i >= len(t.order)-n; i-- {
		out = append(out, t.order[i])
	}
	return out
}

func (t *traceTable) reset() {
	t.mu.Lock()
	t.byID = make(map[TraceID]*traceEntry)
	t.order = nil
	t.mu.Unlock()
}

// TraceSpans returns copies of every recorded span of one trace
// (unordered; use AssembleTrace for the tree).
func TraceSpans(id TraceID) []Span { return traces.get(id) }

// RecentTraces returns up to n most recently started trace IDs, newest
// first.
func RecentTraces(n int) []TraceID { return traces.recent(n) }

// --- assembly ---

// TraceNode is one assembled span-tree node, JSON-shaped for
// /debug/trace/{id} and zipg-cli.
type TraceNode struct {
	Span     Span         `json:"span"`
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceTree is the assembled form of one trace.
type TraceTree struct {
	TraceID   TraceID      `json:"trace_id"`
	SpanCount int          `json:"span_count"`
	Roots     []*TraceNode `json:"roots"`
}

// AssembleTrace stitches every recorded span of a trace into a tree:
// spans link to their parents by span ID; spans whose parent was never
// recorded (or whose parent lives on a server we never heard back from)
// become roots. Children sort by start time. Returns nil if the trace
// is unknown.
func AssembleTrace(id TraceID) *TraceTree {
	spans := traces.get(id)
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[uint64]*TraceNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &TraceNode{Span: spans[i]}
	}
	tree := &TraceTree{TraceID: id, SpanCount: len(spans)}
	for _, n := range nodes {
		if parent, ok := nodes[n.Span.ParentID]; ok && parent != n {
			parent.Children = append(parent.Children, n)
		} else {
			tree.Roots = append(tree.Roots, n)
		}
	}
	var sortChildren func(ns []*TraceNode)
	sortChildren = func(ns []*TraceNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Span.Start.Before(ns[j].Span.Start) })
		for _, n := range ns {
			sortChildren(n.Children)
		}
	}
	sortChildren(tree.Roots)
	return tree
}

// --- slow-query ring ---

// DefaultSlowThreshold is the duration beyond which a root (or
// remote-parented) span enters the slow-query ring.
const DefaultSlowThreshold = 20 * time.Millisecond

var slowThresholdNs atomic.Int64

func init() { slowThresholdNs.Store(int64(DefaultSlowThreshold)) }

// SetSlowThreshold sets the slow-query threshold (minimum 0: admit
// every traced root) and returns the previous value.
func SetSlowThreshold(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(slowThresholdNs.Swap(int64(d)))
}

const slowRingSize = 64

type slowRing struct {
	mu    sync.Mutex
	spans [slowRingSize]Span
	next  int
	total int64
}

var slowRecorder slowRing

// offer admits a finished span if it failed, or if it is a tree-local
// root (no local parent) that crossed the slow threshold — child spans
// of a slow query are reachable through /debug/trace/{id}, so the ring
// holds one entry per slow operation, not one per span.
func (r *slowRing) offer(sp Span) {
	slow := sp.Duration >= time.Duration(slowThresholdNs.Load()) &&
		(sp.ParentID == 0 || sp.remoteParent)
	if sp.Err == "" && !slow {
		return
	}
	r.mu.Lock()
	r.spans[r.next] = sp
	r.next = (r.next + 1) % slowRingSize
	r.total++
	r.mu.Unlock()
	mTraceSlow.Inc()
}

func (r *slowRing) reset() {
	r.mu.Lock()
	r.spans = [slowRingSize]Span{}
	r.next = 0
	r.total = 0
	r.mu.Unlock()
}

// SlowSpans returns the slow-query ring's contents with failures first,
// then by descending duration — the order /debug/slow renders.
func SlowSpans() []Span {
	slowRecorder.mu.Lock()
	n := int(min64(slowRecorder.total, slowRingSize))
	out := make([]Span, 0, n)
	for i := 1; i <= n; i++ {
		idx := (slowRecorder.next - i + slowRingSize) % slowRingSize
		out = append(out, slowRecorder.spans[idx])
	}
	slowRecorder.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		ei, ej := out[i].Err != "", out[j].Err != ""
		if ei != ej {
			return ei
		}
		return out[i].Duration > out[j].Duration
	})
	return out
}
