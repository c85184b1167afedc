package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"zipg/internal/telemetry"
)

// wirePair is a payload type for the tests: one field per kind of
// Codec method.
type wirePair struct {
	OK   bool
	N    int64
	Tags []string
	IDs  []int64
	KV   map[string]string
}

func (p *wirePair) Wire(c *Codec) {
	c.Bool(&p.OK)
	c.Varint(&p.N)
	c.Strings(&p.Tags)
	c.Varints(&p.IDs)
	c.StringMap(&p.KV)
}

// wireForm is p's wire form, without the payload kind byte.
func wireForm(p *wirePair) []byte {
	c := Codec{}
	p.Wire(&c)
	return c.b
}

// decodeForm decodes a wire form without the payload kind byte.
func decodeForm(b []byte, p *wirePair) error {
	c := Codec{b: b, dec: true}
	p.Wire(&c)
	return c.done()
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	rng.Read(b)
	return string(b)
}

// randPair covers nil and empty slices and maps: both travel as a zero
// count and come back nil.
func randPair(rng *rand.Rand) (sent, want wirePair) {
	sent = wirePair{OK: rng.Intn(2) == 0, N: rng.Int63() - rng.Int63()}
	want = sent
	switch rng.Intn(3) {
	case 0:
		sent.Tags, sent.IDs, sent.KV = []string{}, []int64{}, map[string]string{}
	case 1:
		for i := rng.Intn(5) + 1; i > 0; i-- {
			sent.Tags = append(sent.Tags, randString(rng))
			sent.IDs = append(sent.IDs, rng.Int63()-rng.Int63())
		}
		sent.KV = map[string]string{}
		for i := rng.Intn(5) + 1; i > 0; i-- {
			sent.KV[randString(rng)] = randString(rng)
		}
		want.Tags, want.IDs, want.KV = sent.Tags, sent.IDs, sent.KV
	}
	return sent, want
}

func randSpan(rng *rand.Rand) telemetry.Span {
	sp := telemetry.Span{
		Op:       "rpc.serve:" + randString(rng),
		Trace:    telemetry.TraceID{Hi: rng.Uint64(), Lo: rng.Uint64()},
		SpanID:   rng.Uint64(),
		ParentID: rng.Uint64(),
		Server:   rng.Intn(5) - 1,
		Start:    time.Unix(0, rng.Int63()),
		Duration: time.Duration(rng.Int63n(1e9)),
		LogStore: rng.Intn(2) == 0,
		NodeFile: rng.Intn(2) == 0,
		EdgeFile: rng.Intn(2) == 0,
		Fanout:   rng.Intn(4),
		Local:    rng.Intn(100),
		Remote:   rng.Intn(100),
		Bytes:    rng.Int63n(1 << 20),
		Err:      randString(rng),
	}
	for i := rng.Intn(4); i > 0; i-- {
		sp.Phases = append(sp.Phases, telemetry.Phase{Name: randString(rng), Ns: rng.Int63n(1e6)})
		sp.Shards = append(sp.Shards, rng.Intn(16))
	}
	return sp
}

// buildFrame encodes f (envelope, payload v, spans) the way both sides
// of a connection do and returns the whole frame, length prefix included.
func buildFrame(t testing.TB, f *frame, v any) []byte {
	t.Helper()
	b, err := appendPayload(beginFrame(nil, f), v)
	if err != nil {
		t.Fatal(err)
	}
	return endFrame(b, f.spans)
}

// TestFrameRoundTrip: encode → decode gives back every envelope field,
// for requests with and without a trace header and for responses with
// and without an error and shipped spans, and the payload decodes to
// what was sent: a Wirer, and each of the two built-in forms.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		f := frame{id: rng.Uint64()}
		if rng.Intn(2) == 0 { // request
			f.method = randString(rng)
			if rng.Intn(2) == 0 {
				f.trace.Trace = telemetry.TraceID{Hi: rng.Uint64(), Lo: rng.Uint64() | 1}
				f.trace.SpanID = rng.Uint64()
				f.trace.Sampled = rng.Intn(2) == 0
			}
			if rng.Intn(2) == 0 {
				f.trace.Deadline = rng.Int63()
			}
		} else { // response
			if rng.Intn(3) == 0 {
				f.err = "failed: " + randString(rng)
			}
			for n := rng.Intn(4); n > 0; n-- {
				f.spans = append(f.spans, randSpan(rng))
			}
		}
		sent, want := randPair(rng)
		raw := []byte(randString(rng))
		for _, payload := range []any{&sent, rng.Intn(2) == 0, raw, nil} {
			b := buildFrame(t, &f, payload)
			got, err := readFrame(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			gotPayload := got.payload
			got.payload = nil
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, f)
			}
			switch payload := payload.(type) {
			case *wirePair:
				var p wirePair
				if err := decodePayload(gotPayload, &p); err != nil || !reflect.DeepEqual(p, want) {
					t.Fatalf("frame %d: wire payload = %+v, %v; want %+v", i, p, err, want)
				}
			case bool:
				var b bool
				if err := decodePayload(gotPayload, &b); err != nil || b != payload {
					t.Fatalf("frame %d: bool payload = %v, %v; want %v", i, b, err, payload)
				}
			case []byte:
				var b []byte
				if err := decodePayload(gotPayload, &b); err != nil || !bytes.Equal(b, payload) {
					t.Fatalf("frame %d: []byte payload = %x, %v; want %x", i, b, err, payload)
				}
			case nil:
				if len(gotPayload) != 0 || decodePayload(gotPayload, new(bool)) == nil {
					t.Fatalf("frame %d: nil payload travelled as %x", i, gotPayload)
				}
			}
		}
	}
}

// TestMinimalSpansRoundTrip: minSpanWire is what the smallest span
// really occupies (empty op, every varint one byte), so a response
// carrying nothing but such spans passes the decoder's count check.
func TestMinimalSpansRoundTrip(t *testing.T) {
	least := telemetry.Span{Start: time.Unix(0, 0)}
	c := Codec{}
	if wireSpan(&c, &least); len(c.b) != minSpanWire {
		t.Fatalf("the smallest span is %d bytes on the wire, minSpanWire = %d", len(c.b), minSpanWire)
	}
	short := least
	short.Op = "get"
	for _, spans := range [][]telemetry.Span{{least}, {short}, {least, short, least}} {
		f := frame{id: 7, spans: spans}
		got, err := readFrame(bytes.NewReader(buildFrame(t, &f, nil)))
		if err != nil {
			t.Fatalf("%d minimal spans: %v", len(spans), err)
		}
		got.payload = nil
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("got %+v\nwant %+v", got, f)
		}
	}
}

// TestTracedResponseShipsSpans runs a traced call over TCP and checks
// that the serve span the server shipped arrives whole: same identity,
// server, phases and duration as the copy the server recorded locally.
func TestTracedResponseShipsSpans(t *testing.T) {
	prevEnabled := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prevEnabled)
	prevSampling := telemetry.SetSpanSampling(1)
	defer telemetry.SetSpanSampling(prevSampling)
	telemetry.ResetSpans()

	s, addr := startEcho(t)
	s.SetServerID(2)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := frame{id: 9, method: "echo"}
	req.trace.Trace = telemetry.TraceID{Hi: 7, Lo: 11}
	req.trace.SpanID = 13
	req.trace.Sampled = true
	resp := rawCall(t, conn, &req, &echoArgs{"traced", 1})
	if resp.err != "" || len(resp.spans) != 1 {
		t.Fatalf("response = %+v, want one shipped span", resp)
	}
	got := resp.spans[0]
	var want telemetry.Span
	for _, sp := range telemetry.TraceSpans(req.trace.Trace) {
		if sp.Op == "rpc.serve:echo" {
			want = sp
		}
	}
	if got.Op != want.Op || got.Trace != req.trace.Trace || got.ParentID != 13 || got.SpanID != want.SpanID ||
		got.Server != 2 || got.Duration != want.Duration || !got.Start.Equal(want.Start) ||
		!reflect.DeepEqual(got.Phases, want.Phases) {
		t.Fatalf("shipped span\n got %+v\nwant %+v", got, want)
	}
	var names []string
	for _, ph := range got.Phases {
		names = append(names, ph.Name)
	}
	if strings.Join(names, ",") != "queue,decode,serialize" {
		t.Errorf("serve span phases = %v, want queue, decode, serialize", names)
	}
}

// FuzzDecodeFrame feeds arbitrary frame bodies to the envelope decoder.
// It must return a frame or an error — never panic, never allocate from
// a length the body does not back — and a frame it accepts must survive
// another encode and decode unchanged. Requests and responses share the
// layout, so one target (seeded with both) covers both.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	request := frame{id: 1, method: "NodeProps"}
	request.trace = telemetry.TraceContext{Trace: telemetry.TraceID{Hi: 1, Lo: 2}, SpanID: 3, Deadline: 4, Sampled: true}
	response := frame{id: 1, err: "boom", spans: []telemetry.Span{randSpan(rng), randSpan(rng)}}
	for _, fr := range []*frame{{id: 7, method: "Nop"}, &request, {id: 2}, &response} {
		f.Add(buildFrame(f, fr, &wirePair{N: 5, Tags: []string{"a"}})[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrame(body)
		if err != nil {
			return
		}
		if len(fr.spans) > len(body)/minSpanWire || len(fr.payload) > len(body) {
			t.Fatalf("decoded %d spans and %d payload bytes from %d bytes", len(fr.spans), len(fr.payload), len(body))
		}
		b := append(beginFrame(nil, &fr), 0, 0, 0, 0)
		binary.BigEndian.PutUint32(b[len(b)-4:], uint32(len(fr.payload)))
		again, err := decodeFrame(endFrame(append(b, fr.payload...), fr.spans)[4:])
		if err != nil || !reflect.DeepEqual(again, fr) {
			t.Fatalf("re-encoded frame decodes to %+v, %v; want %+v", again, err, fr)
		}
	})
}

// FuzzCodec drives every Codec method over arbitrary bytes through the
// test payload type.
func FuzzCodec(f *testing.F) {
	f.Add(wireForm(&wirePair{}))
	f.Add(wireForm(&wirePair{OK: true, N: -9, Tags: []string{"", "x"}, IDs: []int64{-1, 1 << 40}, KV: map[string]string{"k": "v"}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var p wirePair
		if err := decodeForm(b, &p); err != nil {
			return
		}
		if len(p.Tags)+len(p.IDs)+2*len(p.KV) > len(b) {
			t.Fatalf("decoded %d+%d+%d elements from %d bytes", len(p.Tags), len(p.IDs), len(p.KV), len(b))
		}
		var again wirePair
		if err := decodeForm(wireForm(&p), &again); err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip = %+v, %v; want %+v", again, err, p)
		}
	})
}

// TestNoWireFormRefused: a value of a type with no wire form is refused
// by name, as an argument to encode and as a target to decode into (a
// handler's result: TestUnencodableResultBecomesError); so is decoding
// into a built-in form's value rather than through a pointer.
func TestNoWireFormRefused(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", struct{ A int }{1}, nil); err == nil || !strings.Contains(err.Error(), "struct { A int } has no wire form") {
		t.Fatalf("encoding a struct: err = %v, want it refused by type", err)
	}
	p, err := Encode(&echoArgs{Msg: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeArgs(p, new(string)); err == nil || !strings.Contains(err.Error(), "*string has no wire form") {
		t.Fatalf("decoding into a *string: err = %v, want it refused by type", err)
	}
	if err := DecodeArgs([]byte{payloadWire, 1}, false); err == nil {
		t.Fatal("decoded into a bool value")
	}
}

// TestLadderCalls: the two calls the benchmark's RPC rungs make — a bool
// to a handler that returns one, and a []byte echoed back — round-trip
// over TCP through the built-in forms.
func TestLadderCalls(t *testing.T) {
	s := NewServer()
	s.Handle("Nop", func(context.Context, []byte) (any, error) { return true, nil })
	s.Handle("Echo", func(_ context.Context, args []byte) (any, error) {
		var payload []byte
		err := DecodeArgs(args, &payload)
		return payload, err
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ok bool
	if err := c.Call("Nop", true, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("Nop", true, &ok); err != nil || !ok {
		t.Fatalf("Nop = %v, %v; want true", ok, err)
	}
	payload, reply := make([]byte, 1024), []byte(nil)
	rand.New(rand.NewSource(3)).Read(payload)
	for i := 0; i < 3; i++ {
		if err := c.Call("Echo", payload, &reply); err != nil || !bytes.Equal(reply, payload) {
			t.Fatalf("Echo = %d bytes, %v; want the 1024 sent", len(reply), err)
		}
	}
}

// TestBuiltinFormBytes fixes the two built-in forms' payloads.
func TestBuiltinFormBytes(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{{true, "0101"}, {false, "0100"}, {[]byte("ab"), "01026162"}, {[]byte{}, "0100"}} {
		if p, err := Encode(c.v); err != nil || hex.EncodeToString(p) != c.want {
			t.Errorf("Encode(%#v) = %x, %v; want %s", c.v, p, err, c.want)
		}
	}
}
