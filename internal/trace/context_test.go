package trace

import (
	"bytes"
	"testing"
)

func testContext() *Context {
	return &Context{
		MonitorID:    7,
		SentUnixNano: 1_722_000_000_123,
		Spans: []SpanRecord{
			{Stage: StageCapture, Proc: 7, Monitor: 7, Seq: 41, Start: 1_000, Dur: 250},
			{Stage: StageSummarize, Proc: 7, Monitor: 7, Seq: 41, Start: 1_300, Dur: 90},
			{Stage: StageEncode, Proc: 7, Monitor: 7, Seq: 42, Start: 1_400, Dur: 10},
		},
	}
}

func TestContextRoundTrip(t *testing.T) {
	in := testContext()
	wire := in.AppendWire(nil)
	if len(wire) != ctxHeaderSize+len(in.Spans)*ctxSpanSize {
		t.Fatalf("wire length = %d, want %d", len(wire), ctxHeaderSize+len(in.Spans)*ctxSpanSize)
	}
	out, err := DecodeContext(wire)
	if err != nil {
		t.Fatalf("DecodeContext: %v", err)
	}
	if out.MonitorID != in.MonitorID || out.SentUnixNano != in.SentUnixNano {
		t.Fatalf("header = %d/%d, want %d/%d",
			out.MonitorID, out.SentUnixNano, in.MonitorID, in.SentUnixNano)
	}
	if len(out.Spans) != len(in.Spans) {
		t.Fatalf("got %d spans, want %d", len(out.Spans), len(in.Spans))
	}
	for i, want := range in.Spans {
		got := out.Spans[i]
		if got.Stage != want.Stage || got.Seq != want.Seq ||
			got.Start != want.Start || got.Dur != want.Dur {
			t.Fatalf("span[%d] = %+v, want %+v", i, got, want)
		}
		// Decode re-attributes ownership to the sending monitor.
		if got.Proc != int32(in.MonitorID) || got.Monitor != int32(in.MonitorID) {
			t.Fatalf("span[%d] proc/monitor = %d/%d, want %d", i, got.Proc, got.Monitor, in.MonitorID)
		}
	}
}

func TestContextAppendsAfterPayload(t *testing.T) {
	payload := []byte("summary-bytes")
	wire := testContext().AppendWire(append([]byte(nil), payload...))
	if !bytes.HasPrefix(wire, payload) {
		t.Fatal("AppendWire did not preserve the payload prefix")
	}
	if _, err := DecodeContext(wire[len(payload):]); err != nil {
		t.Fatalf("body after a payload prefix did not decode: %v", err)
	}
}

func TestDecodeContextErrors(t *testing.T) {
	good := testContext().AppendWire(nil)
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"short header", func(b []byte) []byte { return b[:ctxHeaderSize-1] }},
		{"truncated spans", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }},
		{"nspans overflow", func(b []byte) []byte {
			b[ctxHeaderSize-2], b[ctxHeaderSize-1] = 0xFF, 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		wire := tc.mut(append([]byte(nil), good...))
		if _, err := DecodeContext(wire); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
}

func TestDecodeContextEmptySpans(t *testing.T) {
	wire := (&Context{MonitorID: 1, SentUnixNano: 5}).AppendWire(nil)
	ctx, err := DecodeContext(wire)
	if err != nil || ctx == nil || len(ctx.Spans) != 0 {
		t.Fatalf("empty context = (%+v, %v), want 0 spans, nil err", ctx, err)
	}
}

// FuzzDecodeContext drives the body decoder with arbitrary bytes. Two
// invariants: the decoder never panics, and any accepted body
// re-encodes to the input — every wire field is preserved in the
// struct, so decode∘encode is the identity.
func FuzzDecodeContext(f *testing.F) {
	f.Add(testContext().AppendWire(nil))
	f.Add((&Context{MonitorID: 1, SentUnixNano: 5}).AppendWire(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, err := DecodeContext(data)
		if err != nil {
			return
		}
		if re := ctx.AppendWire(nil); !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, re)
		}
	})
}
