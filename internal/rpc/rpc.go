// Package rpc is a minimal multiplexed RPC layer over TCP used by the
// distributed ZipG deployment (§4.1): length-prefixed frames carrying a
// versioned, hand-written binary envelope (frame.go). Each connection
// multiplexes concurrent in-flight calls by request ID, so one
// aggregator connection per peer suffices for the function-shipping
// fan-out.
//
// The request envelope carries an optional trace header (trace ID,
// caller span ID, absolute deadline, sampling decision) and responses
// ship the callee's finished spans back, so a cluster query assembles
// into one distributed span tree on the aggregator. Every argument and
// result travels in one encoding: its type's Wire method (wire.go),
// which names the fields once for both directions. A bool and a []byte
// have built-in forms; a value of any other type without a Wire method
// is refused, by type name.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zipg/internal/telemetry"
)

// maxFrame bounds a single message (64 MiB), protecting servers from
// corrupt length prefixes.
const maxFrame = 64 << 20

// ErrFrameTooLarge is the sentinel matched by errors.Is when a frame's
// length prefix exceeds maxFrame. The error actually returned is a
// *FrameTooLargeError carrying the offending size.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// ErrDeadlineExceeded is the sentinel matched by errors.Is when a call
// is rejected because its propagated deadline already passed — on the
// client before sending, or on the server on arrival.
var ErrDeadlineExceeded = errors.New("rpc: deadline exceeded")

// ErrConnLost is the sentinel matched by errors.Is when a call failed
// because its connection did: the send failed, or the connection broke
// before the reply arrived. The callee may or may not have run. An error
// a handler returned never matches it, whatever its text.
var ErrConnLost = errors.New("rpc: connection lost")

// deadlineErrMsg is the wire form of a server-side deadline rejection
// (error strings cross the wire, sentinels do not).
const deadlineErrMsg = "rpc: deadline exceeded before handler ran"

// FrameTooLargeError reports an oversized frame: the advertised size
// and the limit it broke. errors.Is(err, ErrFrameTooLarge) matches it.
type FrameTooLargeError struct {
	Size  uint32
	Limit uint32
}

// Error implements error.
func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("rpc: frame of %d bytes exceeds %d-byte limit", e.Size, e.Limit)
}

// Is matches the ErrFrameTooLarge sentinel.
func (e *FrameTooLargeError) Is(target error) bool { return target == ErrFrameTooLarge }

// Telemetry series for the RPC layer. Per-method series materialize on
// first use.
var (
	mCalls = telemetry.NewCounterVec("zipg_rpc_calls_total", "method",
		"RPC requests served, by method.")
	mLatency = telemetry.NewHistogramVec("zipg_rpc_latency_ns", "method",
		"Server-side RPC handling latency in nanoseconds, by method.")
	mClientCalls = telemetry.NewCounterVec("zipg_rpc_client_calls_total", "method",
		"Client-side RPC calls issued, by method.")
	mInflight = telemetry.NewGauge("zipg_rpc_inflight",
		"RPC requests currently being served.")
	mFrameBytesRead = telemetry.NewCounterL("zipg_rpc_frame_bytes_total", `dir="read"`,
		"Frame bytes moved (header + payload), by direction.")
	mFrameBytesWritten = telemetry.NewCounterL("zipg_rpc_frame_bytes_total", `dir="write"`,
		"Frame bytes moved (header + payload), by direction.")
	mErrors = telemetry.NewCounterVec("zipg_rpc_errors_total", "kind",
		"RPC-layer errors, by kind.")
	mDeadlineExceeded = telemetry.NewCounterVec("zipg_rpc_deadline_exceeded_total", "where",
		"Calls rejected because the propagated deadline had already passed.")
)

// Handler serves one method: decode args from the blob, return a result
// to encode. ctx carries the caller's trace (the active span for
// StartSpanCtx / PhaseFromContext) and its propagated deadline.
type Handler func(ctx context.Context, args []byte) (any, error)

// Server dispatches framed requests to registered handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	conns    map[net.Conn]bool
	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	serverID atomic.Int64
}

// NewServer returns an empty server.
func NewServer() *Server {
	s := &Server{handlers: make(map[string]Handler), conns: make(map[net.Conn]bool)}
	s.serverID.Store(-1)
	return s
}

// SetServerID records the cluster server ID stamped on serve spans
// (-1, the default, means unknown).
func (s *Server) SetServerID(id int) { s.serverID.Store(int64(id)) }

// Handle registers a method. Must be called before Serve.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	br := bufio.NewReader(conn)
	for {
		req, err := readFrame(br)
		if err != nil {
			// Oversized and unparseable frames are counted; other read
			// errors here are routine connection teardown.
			countFrameError(err, "server")
			return
		}
		received := time.Now()
		// Serve each request concurrently: aggregator fan-outs depend on
		// it (a server may call back into its own peers mid-request).
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			mInflight.Inc()
			defer mInflight.Dec()
			mCalls.With(req.method).Inc()
			tm := telemetry.StartTimer()
			bp := getBuf()
			defer putBuf(bp)
			*bp = s.serveRequest(&req, received, *bp)
			tm.ObserveInto(mLatency.With(req.method))
			if err := writeFrame(conn, &writeMu, *bp); err != nil {
				conn.Close()
			}
		}()
	}
}

// nameSpan names a recorded span prefix+method. The name is a heap
// string, so it is built for the spans that are recorded (and the error
// spans) and not on every call.
func nameSpan(sp *telemetry.Span, prefix, method string) {
	if sp != nil {
		sp.Op = prefix + method
	}
}

// countFrameError counts a read-loop failure that the peer caused by
// what it sent, by kind and side.
func countFrameError(err error, side string) {
	switch {
	case errors.Is(err, ErrFrameTooLarge):
		mErrors.With("frame_too_large_" + side).Inc()
	case errors.Is(err, errBadFrame):
		mErrors.With("bad_frame_" + side).Inc()
	}
}

// serveRequest runs one request through deadline admission, the serve
// span, and the handler, and builds the response frame in b. The
// frame's own write cost is excluded — the wire time is attributed to
// the caller's network phase.
func (s *Server) serveRequest(req *frame, received time.Time, b []byte) []byte {
	resp := frame{id: req.id}
	tc := req.trace

	// Propagated-deadline admission: work whose budget is already spent
	// on arrival is rejected before the handler runs — the first
	// concrete consumer of the trace context beyond tracing itself.
	if tc.Deadline > 0 && !received.Before(time.Unix(0, tc.Deadline)) {
		mDeadlineExceeded.With("server").Inc()
		mErrors.With("deadline").Inc()
		resp.err = deadlineErrMsg
		sp := telemetry.StartRemoteSpan(tc, "", int(s.serverID.Load()))
		nameSpan(sp, "rpc.serve:", req.method)
		if sp != nil {
			sp.Start = received
			sp.SetError(ErrDeadlineExceeded)
		} else {
			telemetry.RecordErrorSpan("rpc.serve:"+req.method, received, ErrDeadlineExceeded)
		}
		return finishResponse(b, &resp, nil, sp)
	}

	// A non-zero trace ID means the caller made the sampling decision;
	// it rides the context even when unsampled, so downstream
	// StartSpanCtx calls honor it instead of re-sampling. A zero trace
	// ID means the caller is trace-unaware (telemetry off client-side)
	// — then the server samples locally, so the flight recorder still
	// sees 1-in-N of such traffic. The deadline is independent of
	// tracing and always re-ships downstream.
	ctx := context.Background()
	var sp *telemetry.Span
	if tc.Trace.IsZero() {
		sp = telemetry.StartServerRootSpan("", int(s.serverID.Load()))
	} else {
		ctx = telemetry.ContextWithRemoteTrace(ctx, tc)
		sp = telemetry.StartRemoteSpan(tc, "", int(s.serverID.Load()))
	}
	nameSpan(sp, "rpc.serve:", req.method)
	if tc.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, tc.Deadline))
		defer cancel()
	}
	if sp != nil {
		// Rebase the span to frame receipt so the queue phase (waiting
		// for a goroutine + admission) lies inside [Start, End].
		sp.Start = received
		ctx = telemetry.ContextWithSpan(ctx, sp)
	}

	s.mu.RLock()
	h := s.handlers[req.method]
	s.mu.RUnlock()
	// Everything up to the handler running — goroutine handoff,
	// admission, span setup, the handler lookup — is queue time.
	sp.AddPhase("queue", time.Since(received))
	var result any
	if h == nil {
		resp.err = fmt.Sprintf("rpc: unknown method %q", req.method)
		mErrors.With("unknown_method").Inc()
		sp.SetError(errors.New(resp.err))
	} else if res, err := h(ctx, req.payload); err != nil {
		resp.err = err.Error()
		mErrors.With("handler").Inc()
		sp.SetError(err)
		if sp == nil {
			telemetry.RecordErrorSpan("rpc.serve:"+req.method, received, err)
		}
	} else {
		result = res
	}
	return finishResponse(b, &resp, result, sp)
}

// finishResponse builds the response frame in b: envelope, the encoded
// result (the serve span's serialize phase), then the ended span's
// subtree. A result that does not encode or does not fit a frame
// becomes an error response, so the caller always gets an answer.
func finishResponse(b []byte, resp *frame, result any, sp *telemetry.Span) []byte {
	endSer := sp.Phase("serialize")
	b, err := appendPayload(beginFrame(b, resp), result)
	endSer()
	if err != nil {
		mErrors.With("encode").Inc()
		sp.SetError(err)
		resp.err = fmt.Sprintf("rpc: encode result: %v", err)
		b, _ = appendPayload(beginFrame(b, resp), nil)
	}
	// End before shipping: Flatten copies the span with its final
	// duration, and End records it into this server's local table.
	sp.End()
	return endFrame(b, sp.Flatten())
}

// Close stops the server, closes open connections (unblocking their
// readers), and waits for in-flight work.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Client is a multiplexed connection to one server. Safe for concurrent
// use.
type Client struct {
	conn    net.Conn
	writeMu sync.Mutex
	nextID  atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*call
	err     error
}

// call is one in-flight request's rendezvous with the read loop, which
// fills resp — or lost, when the connection failed first — and then
// signals done. Calls are pooled: a caller may put
// one back only once no read loop can still hold it, which is after it
// received from done or after it removed the pending entry itself.
type call struct {
	resp frame
	lost error
	done chan struct{} // buffered, so the read loop never blocks on a caller
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func putCall(cl *call) {
	cl.resp, cl.lost = frame{}, nil
	callPool.Put(cl)
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, pending: make(map[uint64]*call)}
	go c.readLoop()
	return c, nil
}

// readLoop delivers responses to their callers until the connection
// fails, then fails every call still pending. It exits when Close (or
// the peer) closes the connection.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		resp, err := readFrame(br)
		if err != nil {
			countFrameError(err, "client")
			c.mu.Lock()
			c.err = err
			for id, cl := range c.pending {
				cl.lost = err
				cl.done <- struct{}{}
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		// A reply whose caller gave up (deadline) finds no entry and is
		// dropped.
		c.mu.Lock()
		cl := c.pending[resp.id]
		delete(c.pending, resp.id)
		c.mu.Unlock()
		if cl != nil {
			cl.resp = resp
			cl.done <- struct{}{}
		}
	}
}

// Call invokes method with args (a Wirer, a bool or a []byte), decoding
// the result into reply (a Wirer, *bool or *[]byte, or nil to discard).
// Untraced unless the process's local sampling period elects the call as
// a fresh trace root.
func (c *Client) Call(method string, args any, reply any) error {
	return c.CallCtx(context.Background(), method, args, reply)
}

// CallCtx invokes method with args under ctx: the active span (if any)
// gains an "rpc.call:<method>" child whose identity and the context's
// deadline travel in the frame's trace header, and the callee's spans
// attach to it on return. The call-side phases — serialize (args
// encode), network (write through response receipt), decode (reply
// decode) — attribute where the caller's time went. A call whose ctx
// ends before the reply arrives returns then: a hung peer costs the
// caller its deadline and no more.
func (c *Client) CallCtx(ctx context.Context, method string, args any, reply any) (err error) {
	mClientCalls.With(method).Inc()
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}

	// Don't send work the callee must reject: a spent deadline fails
	// here, one network round-trip cheaper than the server-side check.
	if dl, ok := ctx.Deadline(); ok && !start.Before(dl) {
		mDeadlineExceeded.With("client").Inc()
		err := fmt.Errorf("%w (before send of %s)", ErrDeadlineExceeded, method)
		telemetry.RecordErrorSpan("rpc.call:"+method, start, err)
		return err
	}

	sp, ctx := telemetry.StartSpanCtx(ctx, "")
	nameSpan(sp, "rpc.call:", method)
	defer func() {
		if err != nil {
			sp.SetError(err)
			if sp == nil {
				telemetry.RecordErrorSpan("rpc.call:"+method, start, err)
			}
		}
		sp.End()
	}()

	id := c.nextID.Add(1)
	bp := getBuf()
	defer putBuf(bp)
	endSer := sp.Phase("serialize")
	b, encErr := appendPayload(beginFrame(*bp, &frame{id: id, method: method, trace: telemetry.OutgoingTrace(ctx, sp)}), args)
	*bp = b
	endSer()
	if encErr != nil {
		return fmt.Errorf("rpc: encode args: %w", encErr)
	}
	b = endFrame(b, nil)

	cl := callPool.Get().(*call)
	c.mu.Lock()
	if c.err != nil {
		cerr := c.err
		c.mu.Unlock()
		putCall(cl)
		return fmt.Errorf("%w: %w", ErrConnLost, cerr)
	}
	c.pending[id] = cl
	c.mu.Unlock()

	endNet := sp.Phase("network")
	if werr := writeFrame(c.conn, &c.writeMu, b); werr != nil {
		endNet()
		c.forget(id, cl)
		putCall(cl)
		return fmt.Errorf("%w: send: %w", ErrConnLost, werr)
	}
	select {
	case <-cl.done:
	case <-ctx.Done():
		if c.forget(id, cl) {
			endNet()
			putCall(cl)
			if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return fmt.Errorf("rpc: %s: %w", method, ctx.Err())
			}
			mDeadlineExceeded.With("client").Inc()
			return fmt.Errorf("%w (no reply to %s)", ErrDeadlineExceeded, method)
		}
	}
	endNet()
	resp, lost := cl.resp, cl.lost
	putCall(cl)
	if lost != nil {
		return fmt.Errorf("%w: %w", ErrConnLost, lost)
	}
	sp.AddRemoteSpans(resp.spans)
	if resp.err != "" {
		if resp.err == deadlineErrMsg {
			return fmt.Errorf("%w (server rejected %s on arrival)", ErrDeadlineExceeded, method)
		}
		return errors.New(resp.err)
	}
	if reply != nil {
		endDec := sp.Phase("decode")
		derr := decodePayload(resp.payload, reply)
		endDec()
		if derr != nil {
			return fmt.Errorf("rpc: decode reply: %w", derr)
		}
	}
	return nil
}

// forget withdraws the pending entry of a call that will not wait for
// its reply, and reports whether it was still there. If not, the read
// loop had already claimed it: forget then waits for the reply being
// delivered into cl.resp. Either way no read loop touches cl afterwards.
func (c *Client) forget(id uint64, cl *call) bool {
	c.mu.Lock()
	_, waiting := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !waiting {
		<-cl.done
	}
	return waiting
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// DecodeArgs is a helper for handlers: it decodes a request's payload
// into v, a Wirer, *bool or *[]byte.
func DecodeArgs(blob []byte, v any) error { return decodePayload(blob, v) }

// Encode returns the payload a call or a reply carries for v, which
// DecodeArgs reads back.
func Encode(v any) ([]byte, error) {
	b, err := appendPayload(nil, v)
	if err != nil {
		return nil, err
	}
	return b[4:], nil
}

// DecodeArgsCtx decodes handler args while attributing the time to the
// active span's decode phase.
func DecodeArgsCtx(ctx context.Context, blob []byte, v any) error {
	defer telemetry.PhaseFromContext(ctx, "decode")()
	return decodePayload(blob, v)
}
