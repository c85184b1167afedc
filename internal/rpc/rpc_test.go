package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"zipg/internal/telemetry"
)

type echoArgs struct {
	Msg string
	N   int
}

func (a *echoArgs) Wire(c *Codec) {
	c.String(&a.Msg)
	c.Int(&a.N)
}

func startEcho(t testing.TB) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(ctx context.Context, blob []byte) (any, error) {
		var a echoArgs
		if err := DecodeArgsCtx(ctx, blob, &a); err != nil {
			return nil, err
		}
		return &echoArgs{Msg: fmt.Sprintf("%s/%d", a.Msg, a.N)}, nil
	})
	s.Handle("fail", func(ctx context.Context, blob []byte) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoArgs
	if err := c.Call("echo", &echoArgs{"hello", 7}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "hello/7" {
		t.Fatalf("reply = %q", reply.Msg)
	}
}

func TestCallErrors(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("fail", &echoArgs{}, nil); err == nil || err.Error() != "deliberate failure" {
		t.Fatalf("err = %v", err)
	}
	if err := c.Call("nope", &echoArgs{}, nil); err == nil {
		t.Fatal("unknown method should error")
	}
	// The connection survives handler errors.
	var reply echoArgs
	if err := c.Call("echo", &echoArgs{"still", 1}, &reply); err != nil || reply.Msg != "still/1" {
		t.Fatalf("connection broken after error: %v %q", err, reply.Msg)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var reply echoArgs
				if err := c.Call("echo", &echoArgs{"m", g*1000 + i}, &reply); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if reply.Msg != fmt.Sprintf("m/%d", g*1000+i) {
					t.Errorf("cross-wired reply %q", reply.Msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// oversizedHeader is a length prefix advertising a frame over maxFrame.
func oversizedHeader() []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	return hdr[:]
}

func TestFrameTooLargeTyped(t *testing.T) {
	_, err := readFrame(bytes.NewReader(oversizedHeader()))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("errors.Is(err, ErrFrameTooLarge) = false, err = %v", err)
	}
	var f *FrameTooLargeError
	if !errors.As(err, &f) {
		t.Fatalf("errors.As *FrameTooLargeError = false, err = %v", err)
	}
	if f.Size != maxFrame+1 || f.Limit != maxFrame {
		t.Errorf("FrameTooLargeError = %+v, want Size=%d Limit=%d", f, maxFrame+1, maxFrame)
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFrameTooLargeServerPath oversends to a live server: the server's
// read loop must drop the connection and bump the error counter.
func TestFrameTooLargeServerPath(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	_, addr := startEcho(t)
	before := mErrors.With("frame_too_large_server").Value()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(oversizedHeader()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server frame_too_large counter", func() bool {
		return mErrors.With("frame_too_large_server").Value() > before
	})
}

// TestFrameTooLargeClientPath serves an oversized response from a raw
// listener: the client's read loop must fail pending calls and bump the
// client-side counter.
func TestFrameTooLargeClientPath(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(oversizedHeader())
		time.Sleep(100 * time.Millisecond)
	}()
	before := mErrors.With("frame_too_large_client").Value()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "client frame_too_large counter", func() bool {
		return mErrors.With("frame_too_large_client").Value() > before
	})
	if err := c.Call("echo", &echoArgs{}, nil); err == nil {
		t.Error("Call on poisoned connection should fail")
	}
}

// rawCall writes one request frame on a bare connection, the way a
// client that is not this package's Client would, and reads the reply.
func rawCall(t *testing.T, conn net.Conn, req *frame, args any) frame {
	t.Helper()
	if _, err := conn.Write(buildFrame(t, req, args)); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestUntracedClientStillSampledServerSide proves a request without a
// trace header (trace-unaware or telemetry-off client) does not
// suppress server-side sampling: the server makes its own decision and
// records a local root serve span, so /debug/trace and /debug/traces
// keep seeing such traffic.
func TestUntracedClientStillSampledServerSide(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	prevSampling := telemetry.SetSpanSampling(1)
	defer telemetry.SetSpanSampling(prevSampling)
	telemetry.ResetSpans()

	srv, addr := startEcho(t)
	srv.SetServerID(3)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp := rawCall(t, conn, &frame{id: 1, method: "echo"}, &echoArgs{"untraced", 9})
	if resp.err != "" {
		t.Fatalf("unexpected error %q", resp.err)
	}

	ids := telemetry.RecentTraces(1)
	if len(ids) != 1 {
		t.Fatalf("no trace recorded for untraced client request")
	}
	tree := telemetry.AssembleTrace(ids[0])
	if tree == nil || len(tree.Roots) != 1 {
		t.Fatalf("trace %v did not assemble to one root", ids[0])
	}
	root := tree.Roots[0].Span
	if root.Op != "rpc.serve:echo" || root.ParentID != 0 || root.Server != 3 {
		t.Fatalf("server-local root = %+v", root)
	}
}

// TestDeadlineRejectedOnArrival writes a raw frame whose propagated
// deadline already passed: the server must refuse to run the handler
// and count the rejection.
func TestDeadlineRejectedOnArrival(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	_, addr := startEcho(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	before := mDeadlineExceeded.With("server").Value()
	req := frame{id: 7, method: "echo"}
	req.trace.Deadline = time.Now().Add(-time.Second).UnixNano()
	resp := rawCall(t, conn, &req, &echoArgs{"late", 1})
	if resp.id != 7 || resp.err != deadlineErrMsg {
		t.Fatalf("resp = %+v, want deadline rejection of call 7", resp)
	}
	if got := mDeadlineExceeded.With("server").Value(); got != before+1 {
		t.Errorf("server deadline counter = %d, want %d", got, before+1)
	}
}

// TestDeadlineRejectedBeforeSend verifies the client-side short-circuit:
// an expired context fails without a network round trip.
func TestDeadlineRejectedBeforeSend(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := mDeadlineExceeded.With("client").Value()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	err = c.CallCtx(ctx, "echo", &echoArgs{"never", 0}, nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if got := mDeadlineExceeded.With("client").Value(); got != before+1 {
		t.Errorf("client deadline counter = %d, want %d", got, before+1)
	}
}

// TestTraceRoundTrip runs a traced call end to end over TCP and asserts
// the assembled tree: caller root → rpc.call:echo → rpc.serve:echo, all
// under one trace ID, the serve span carrying the server's ID and
// phases that fit inside its duration.
func TestTraceRoundTrip(t *testing.T) {
	prevEnabled := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prevEnabled)
	prevSampling := telemetry.SetSpanSampling(1)
	defer telemetry.SetSpanSampling(prevSampling)
	telemetry.ResetSpans()

	s, addr := startEcho(t)
	s.SetServerID(5)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root, ctx := telemetry.StartSpanCtx(context.Background(), "test.root")
	if root == nil {
		t.Fatal("sampling=1 must trace the root")
	}
	var reply echoArgs
	if err := c.CallCtx(ctx, "echo", &echoArgs{"traced", 9}, &reply); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := telemetry.AssembleTrace(root.Trace)
	if tree == nil || len(tree.Roots) != 1 {
		t.Fatalf("assembled tree = %+v, want one root", tree)
	}
	r := tree.Roots[0]
	if r.Span.Op != "test.root" || len(r.Children) != 1 {
		t.Fatalf("root = %s with %d children, want test.root with 1", r.Span.Op, len(r.Children))
	}
	call := r.Children[0]
	if call.Span.Op != "rpc.call:echo" || len(call.Children) != 1 {
		t.Fatalf("call node = %s with %d children", call.Span.Op, len(call.Children))
	}
	serve := call.Children[0]
	if serve.Span.Op != "rpc.serve:echo" {
		t.Fatalf("serve node = %s", serve.Span.Op)
	}
	if serve.Span.Server != 5 {
		t.Errorf("serve span server = %d, want 5", serve.Span.Server)
	}
	for _, n := range []*telemetry.TraceNode{r, call, serve} {
		if n.Span.Trace != root.Trace {
			t.Errorf("%s trace = %s, want %s", n.Span.Op, n.Span.Trace, root.Trace)
		}
		if pt := n.Span.PhaseTotal(); pt > n.Span.Duration {
			t.Errorf("%s phase total %s exceeds duration %s", n.Span.Op, pt, n.Span.Duration)
		}
	}
}

// TestDeadlineMetricName locks the wire-facing metric name into the
// exposition so a rename fails CI. (The zipg_trace_* names are locked
// in the telemetry package's own tests; this one lives here because the
// counter is registered by the rpc package.)
func TestDeadlineMetricName(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	mDeadlineExceeded.With("server").Add(0)
	mDeadlineExceeded.With("client").Add(0)
	expo := telemetry.Default.Expose()
	for _, want := range []string{
		`zipg_rpc_deadline_exceeded_total{where="server"}`,
		`zipg_rpc_deadline_exceeded_total{where="client"}`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestConnectionLoss(t *testing.T) {
	s, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoArgs
	if err := c.Call("echo", &echoArgs{"x", 1}, &reply); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Call("echo", &echoArgs{"y", 2}, &reply); err == nil {
		t.Fatal("call on closed server should fail")
	}
}

// TestHungPeerCostsItsDeadline dials a listener that accepts and never
// answers: the call must come back when its deadline passes, counted as
// a client-side deadline rejection, and leave nothing pending.
func TestHungPeerCostsItsDeadline(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // held open, never read, never answered
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() { (<-accepted).Close() }()

	before := mDeadlineExceeded.With("client").Value()
	const deadline = 50 * time.Millisecond
	start := time.Now() // before the deadline is set: took cannot fall short of it
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	err = c.CallCtx(ctx, "echo", &echoArgs{"anyone?", 1}, nil)
	took := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if took < deadline || took > deadline+10*time.Millisecond {
		t.Errorf("call returned after %s, want within [%s, %s]", took, deadline, deadline+10*time.Millisecond)
	}
	if got := mDeadlineExceeded.With("client").Value(); got != before+1 {
		t.Errorf("client deadline counter = %d, want %d", got, before+1)
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d calls still pending after the deadline", pending)
	}
}

// TestLateReplyIsHarmless answers a call after its caller gave up, then
// answers the next call: the late frame must be dropped and the next
// caller must get its own reply, not the stale one.
func TestLateReplyIsHarmless(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		first, err := readFrame(br)
		if err != nil {
			return
		}
		<-release // the first caller has given up by now
		second, err := readFrame(br)
		if err != nil {
			return
		}
		for _, reply := range []struct {
			id  uint64
			msg string
		}{{first.id, "late"}, {second.id, "fresh"}} {
			conn.Write(buildFrame(t, &frame{id: reply.id}, &echoArgs{Msg: reply.msg}))
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.CallCtx(ctx, "echo", &echoArgs{"one", 1}, nil); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("first call: err = %v, want ErrDeadlineExceeded", err)
	}
	close(release)
	var got echoArgs
	if err := c.Call("echo", &echoArgs{"two", 2}, &got); err != nil || got.Msg != "fresh" {
		t.Fatalf("second call = %q, %v; want its own reply", got.Msg, err)
	}
}

// TestCancelledCallReturns: a context cancelled for another reason than
// its deadline ends the wait too, and says why.
func TestCancelledCallReturns(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle("wait", func(context.Context, []byte) (any, error) { <-block; return true, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(block)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if err := c.CallCtx(ctx, "wait", true, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFrameBytesCountedBeforeReturn: once a call has returned, both of
// its frames are in both directions' totals — the write side counts a
// frame before sending it, not after.
func TestFrameBytesCountedBeforeReturn(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 20; round++ {
		read, written := mFrameBytesRead.Value(), mFrameBytesWritten.Value()
		for i := 0; i < 50; i++ {
			var reply echoArgs
			if err := c.Call("echo", &echoArgs{"count", i}, &reply); err != nil {
				t.Fatal(err)
			}
		}
		read, written = mFrameBytesRead.Value()-read, mFrameBytesWritten.Value()-written
		if read != written || read == 0 {
			t.Fatalf("round %d: %d frame bytes read, %d written", round, read, written)
		}
	}
}

// TestUnsupportedFrameVersion: a frame of another version is refused
// with an error that says so, on whichever side reads it.
func TestUnsupportedFrameVersion(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	b := buildFrame(t, &frame{id: 1, method: "echo"}, nil)
	b[4] = frameVersion + 1
	if _, err := readFrame(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "unsupported frame version") {
		t.Fatalf("readFrame = %v, want an unsupported-version error", err)
	}

	// A server drops the connection and counts it.
	_, addr := startEcho(t)
	before := mErrors.With("bad_frame_server").Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after a frame of an unknown version")
	}
	if got := mErrors.With("bad_frame_server").Value(); got != before+1 {
		t.Errorf("bad_frame_server = %d, want %d", got, before+1)
	}

	// A client fails its calls with the reason.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(bufio.NewReader(conn))
		conn.Write(b)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", &echoArgs{}, nil); err == nil || !strings.Contains(err.Error(), "unsupported frame version") {
		t.Fatalf("Call = %v, want an unsupported-version error", err)
	}
}

// TestUnencodableResultBecomesError: a handler result with no wire form
// must reach the caller as an error naming its type, not hang it or drop
// the connection.
func TestUnencodableResultBecomesError(t *testing.T) {
	s, addr := startEcho(t)
	s.Handle("chan", func(context.Context, []byte) (any, error) { return make(chan int), nil })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("chan", true, nil); err == nil || !strings.Contains(err.Error(), "encode result: rpc: chan int has no wire form") {
		t.Fatalf("err = %v, want an encode-result error naming the type", err)
	}
	var reply echoArgs
	if err := c.Call("echo", &echoArgs{"after", 1}, &reply); err != nil || reply.Msg != "after/1" {
		t.Fatalf("connection broken after encode failure: %v %q", err, reply.Msg)
	}
}
