package wire

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/sketch"
	"repro/internal/trace"
)

// Native Go fuzzing over the wire decode surface: ReadFrame (the only
// function that sizes allocations from attacker-controlled bytes) and
// every fixed-layout Decode*. The properties under test:
//
//   - no input panics, overreads, or allocates past the frame bound;
//   - every accepted input round-trips: decode → encode → identical
//     bytes, so a fuzzer that finds an accepted-but-misread frame
//     fails loudly instead of silently corrupting an epoch.

// seedFrame writes one valid frame into the corpus.
func seedFrame(f *testing.F, t MsgType, payload []byte) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, t, payload); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

func FuzzReadFrame(f *testing.F) {
	seedFrame(f, MsgLoadQuery, nil)
	seedFrame(f, MsgLoadReport, EncodeLoadReport(3, 1234.5))
	seedFrame(f, MsgSummaryRequest, EncodeSummaryRequest(9))
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(1, 2, 3))
	seedFrame(f, MsgRawRequest, EncodeRawRequest(4, 5))
	seedFrame(f, MsgFinerRequest, EncodeFinerRequest(6, 400))
	seedFrame(f, MsgHello, EncodeHello(12))
	seedFrame(f, MsgAlert, []byte("ALERT syn_flood sid=10002"))
	// Decline frames carrying extension records, as monitors send them
	// with the sketch pass or tracing on: a digest record, a trace
	// record, both, and records a receiver must skip by length (an
	// unknown tag, an unknown version).
	dg := sketch.Digest{
		MonitorID: 2, Epoch: 9, Offered: 20000, Shed: 12000, Kept: 8000,
		TopDst: []sketch.HeavyHitter{{Key: 0x0A00002A, Count: 9000}},
		TopSrc: []sketch.HeavyHitter{{Key: 0xC0A80001, Count: 8800}},
	}
	tctx := trace.Context{MonitorID: 2, SentUnixNano: 1_000, Spans: []trace.SpanRecord{
		{Stage: trace.StageCapture, Seq: 7, Start: 500, Dur: 50},
	}}
	digestExt := Ext{Tag: ExtDigest, Version: ExtVersion, Body: dg.AppendWire(nil)}
	traceExt := Ext{Tag: ExtTrace, Version: ExtVersion, Body: tctx.AppendWire(nil)}
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(2, 9, 0, digestExt))
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(2, 9, 0, traceExt))
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(2, 9, 40, digestExt, traceExt))
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(2, 9, 0,
		Ext{Tag: 0xEE, Version: ExtVersion, Body: []byte("unknown")}, traceExt))
	seedFrame(f, MsgSummaryDecline, EncodeSummaryDecline(2, 9, 0,
		Ext{Tag: ExtDigest, Version: 0x7f, Body: []byte("future")}, digestExt))
	// A header that promises far more than it delivers.
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, byte(MsgSummary), 1, 2, 3})
	// A header past MaxFrameSize.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgSummary)})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(msg.Payload) > MaxFrameSize {
			t.Fatalf("accepted payload of %d bytes past MaxFrameSize", len(msg.Payload))
		}
		if len(msg.Payload) > len(data) {
			t.Fatalf("payload of %d bytes from %d input bytes: overread", len(msg.Payload), len(data))
		}
		// Round trip: re-encoding the message and re-reading it must
		// reproduce it exactly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg.Type, msg.Payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		if again.Type != msg.Type || !bytes.Equal(again.Payload, msg.Payload) {
			t.Fatalf("frame did not round-trip: %v/%d bytes vs %v/%d bytes",
				msg.Type, len(msg.Payload), again.Type, len(again.Payload))
		}
	})
}

func FuzzDecodeLoadReport(f *testing.F) {
	f.Add(EncodeLoadReport(0, 0))
	f.Add(EncodeLoadReport(41, 99031.25))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, load, err := DecodeLoadReport(p)
		if err != nil {
			return
		}
		if id < 0 {
			t.Fatalf("negative monitor ID %d from a uint32 field", id)
		}
		if math.IsNaN(load) {
			return // NaN payload bits need not round-trip through the FPU
		}
		if got := EncodeLoadReport(id, load); !bytes.Equal(got, p) {
			t.Fatalf("load report did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeSummaryRequest(f *testing.F) {
	f.Add(EncodeSummaryRequest(0))
	f.Add(EncodeSummaryRequest(1 << 40))
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, err := DecodeSummaryRequest(p)
		if err != nil {
			return
		}
		if got := EncodeSummaryRequest(epoch); !bytes.Equal(got, p) {
			t.Fatalf("summary request did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeSummaryDecline(f *testing.F) {
	f.Add(EncodeSummaryDecline(0, 0, 0))
	f.Add(EncodeSummaryDecline(7, 1<<33, 599))
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add(EncodeSummaryDecline(7, 1, 0, Ext{Tag: ExtDigest, Version: ExtVersion, Body: []byte{1, 2}},
		Ext{Tag: 0xEE, Version: 3}))
	f.Fuzz(func(t *testing.T, p []byte) {
		id, epoch, pending, err := DecodeSummaryDecline(p)
		if err != nil {
			return
		}
		if id < 0 || pending < 0 {
			t.Fatalf("negative fields from uint32s: id=%d pending=%d", id, pending)
		}
		exts, err := DeclineExts(p)
		if err != nil {
			t.Fatalf("decline accepted with a block the walker rejects: %v", err)
		}
		if got := EncodeSummaryDecline(id, epoch, pending, exts...); !bytes.Equal(got, p) {
			t.Fatalf("summary decline did not round-trip: %x vs %x", got, p)
		}
	})
}

// FuzzDeclineExts drives the extension-block walker: it must never
// panic, must agree with DecodeSummaryDecline on what is well formed,
// and every accepted block must account for every byte after the fixed
// fields.
func FuzzDeclineExts(f *testing.F) {
	f.Add(EncodeSummaryDecline(1, 2, 3))
	f.Add(EncodeSummaryDecline(1, 2, 3, Ext{Tag: ExtTrace, Version: ExtVersion, Body: []byte("spans")}))
	f.Add(append(EncodeSummaryDecline(1, 2, 3), byte(ExtDigest), ExtVersion, 0, 0, 0, 9, 1))
	f.Fuzz(func(t *testing.T, p []byte) {
		exts, err := DeclineExts(p)
		if _, _, _, derr := DecodeSummaryDecline(p); (err == nil) != (derr == nil) {
			t.Fatalf("walker error %v, decline error %v: they must agree", err, derr)
		}
		if err != nil {
			return
		}
		n := declineSize
		for _, x := range exts {
			n += extHeaderSize + len(x.Body)
		}
		if n != len(p) {
			t.Fatalf("records cover %d of %d bytes", n, len(p))
		}
	})
}

func FuzzDecodeRawRequest(f *testing.F) {
	f.Add(EncodeRawRequest(0, 0))
	f.Add(EncodeRawRequest(3, 199))
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, centroid, err := DecodeRawRequest(p)
		if err != nil {
			return
		}
		if centroid < 0 {
			t.Fatalf("negative centroid %d from a uint32 field", centroid)
		}
		if got := EncodeRawRequest(epoch, centroid); !bytes.Equal(got, p) {
			t.Fatalf("raw request did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeFinerRequest(f *testing.F) {
	f.Add(EncodeFinerRequest(0, 0))
	f.Add(EncodeFinerRequest(11, 400))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		epoch, k, err := DecodeFinerRequest(p)
		if err != nil {
			return
		}
		if k < 0 {
			t.Fatalf("negative k %d from a uint32 field", k)
		}
		if got := EncodeFinerRequest(epoch, k); !bytes.Equal(got, p) {
			t.Fatalf("finer request did not round-trip: %x vs %x", got, p)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello(0))
	f.Add(EncodeHello(1 << 20))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, err := DecodeHello(p)
		if err != nil {
			return
		}
		if id < 0 {
			t.Fatalf("negative monitor ID %d from a uint32 field", id)
		}
		if got := EncodeHello(id); !bytes.Equal(got, p) {
			t.Fatalf("hello did not round-trip: %x vs %x", got, p)
		}
	})
}

// TestReadFrameBoundedAllocation pins the hardening FuzzReadFrame
// relies on: a header claiming MaxFrameSize with a short body must
// fail with an unexpected-EOF class error after allocating at most one
// chunk, not reserve the full claimed size.
func TestReadFrameBoundedAllocation(t *testing.T) {
	hdr := []byte{0x03, 0xff, 0xff, 0xff, byte(MsgSummary)} // ~64 MB claim
	input := append(hdr, make([]byte, 100)...)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader(input)); err == nil {
		t.Fatal("truncated 64 MB claim must not decode")
	}
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4*frameAllocChunk {
		t.Fatalf("short frame with a 64 MB claim allocated %d bytes, want <= %d",
			delta, 4*frameAllocChunk)
	}
}
