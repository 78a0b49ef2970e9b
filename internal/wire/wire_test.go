package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello summaries")
	if err := WriteFrame(&buf, MsgSummary, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgSummary || !bytes.Equal(msg.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", msg)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgLoadQuery, nil); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgLoadQuery || len(msg.Payload) != 0 {
		t.Fatalf("round trip mismatch: %+v", msg)
	}
}

func TestFrameMultiple(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgHello, EncodeHello(3))
	WriteFrame(&buf, MsgLoadReport, EncodeLoadReport(3, 0.75))
	m1, err := ReadFrame(&buf)
	if err != nil || m1.Type != MsgHello {
		t.Fatalf("first frame: %v %v", m1, err)
	}
	m2, err := ReadFrame(&buf)
	if err != nil || m2.Type != MsgLoadReport {
		t.Fatalf("second frame: %v %v", m2, err)
	}
}

func TestFrameEOF(t *testing.T) {
	var empty bytes.Buffer
	if _, err := ReadFrame(&empty); err != io.EOF {
		t.Fatalf("got %v, want io.EOF on empty stream", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgSummary, []byte("abcdef"))
	trunc := buf.Bytes()[:7] // header + 2 bytes
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestFrameOversized(t *testing.T) {
	// Craft a header claiming a huge payload.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgSummary)}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
	if err := WriteFrame(io.Discard, MsgSummary, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized write must be rejected")
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	id, load, err := DecodeLoadReport(EncodeLoadReport(42, 3.14))
	if err != nil || id != 42 || load != 3.14 {
		t.Fatalf("round trip: %d %v %v", id, load, err)
	}
	if _, _, err := DecodeLoadReport([]byte{1}); err == nil {
		t.Fatal("short load report must error")
	}
}

func TestSummaryRequestRoundTrip(t *testing.T) {
	e, err := DecodeSummaryRequest(EncodeSummaryRequest(77))
	if err != nil || e != 77 {
		t.Fatalf("round trip: %d %v", e, err)
	}
	if _, err := DecodeSummaryRequest(nil); err == nil {
		t.Fatal("short request must error")
	}
}

func TestSummaryDeclineRoundTrip(t *testing.T) {
	plain := EncodeSummaryDecline(9, 33, 512)
	if len(plain) != declineSize {
		t.Fatalf("decline without records is %d bytes, want %d", len(plain), declineSize)
	}
	id, e, pending, err := DecodeSummaryDecline(plain)
	if err != nil || id != 9 || e != 33 || pending != 512 {
		t.Fatalf("round trip: %d %d %d %v", id, e, pending, err)
	}
	if exts, err := DeclineExts(plain); err != nil || exts != nil {
		t.Fatalf("plain decline has records %v (err %v)", exts, err)
	}
	if _, _, _, err := DecodeSummaryDecline([]byte{1, 2}); err == nil {
		t.Fatal("short decline must error")
	}

	want := []Ext{
		{Tag: ExtDigest, Version: ExtVersion, Body: []byte("digest")},
		{Tag: ExtTrace, Version: ExtVersion, Body: nil},
	}
	p := EncodeSummaryDecline(9, 33, 512, want...)
	id, e, pending, err = DecodeSummaryDecline(p)
	if err != nil || id != 9 || e != 33 || pending != 512 {
		t.Fatalf("round trip with records: %d %d %d %v", id, e, pending, err)
	}
	got, err := DeclineExts(p)
	if err != nil || len(got) != len(want) {
		t.Fatalf("records = %v (err %v), want %v", got, err, want)
	}
	for i := range want {
		if got[i].Tag != want[i].Tag || got[i].Version != want[i].Version || !bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A record of unknown tag or version is delimited like any other, so a
// reader that skips it by length finds the next record intact.
func TestDeclineExtsSkipUnknown(t *testing.T) {
	want := []Ext{
		{Tag: ExtDigest, Version: 99, Body: []byte("a future digest layout")},
		{Tag: 0xEE, Version: ExtVersion, Body: []byte("a record this build has no tag for")},
		{Tag: ExtTrace, Version: 99, Body: []byte{1}},
		{Tag: ExtTrace, Version: ExtVersion, Body: []byte("trace")},
	}
	p := EncodeSummaryDecline(1, 2, 3, want...)
	if _, _, _, err := DecodeSummaryDecline(p); err != nil {
		t.Fatalf("unknown records must not fail the decline: %v", err)
	}
	got, err := DeclineExts(p)
	if err != nil || len(got) != len(want) {
		t.Fatalf("records = %v (err %v), want %d", got, err, len(want))
	}
	last := got[len(got)-1]
	if last.Tag != ExtTrace || last.Version != ExtVersion || string(last.Body) != "trace" {
		t.Fatalf("record after unknown ones = %+v", last)
	}
}

func TestDeclineExtsRejectMalformed(t *testing.T) {
	good := EncodeSummaryDecline(1, 2, 3, Ext{Tag: ExtDigest, Version: ExtVersion, Body: []byte("body")})
	cases := map[string][]byte{
		"truncated record header": good[:declineSize+extHeaderSize-1],
		"truncated body":          good[:len(good)-1],
		"trailing byte":           append(bytes.Clone(good), 0),
		"length past the payload": append(EncodeSummaryDecline(1, 2, 3), 1, 1, 0xFF, 0xFF, 0xFF, 0xFF),
	}
	for name, p := range cases {
		if _, err := DeclineExts(p); err == nil {
			t.Errorf("%s: DeclineExts accepted %x", name, p)
		}
		if _, _, _, err := DecodeSummaryDecline(p); err == nil {
			t.Errorf("%s: DecodeSummaryDecline accepted %x", name, p)
		}
	}
}

func TestRawRequestRoundTrip(t *testing.T) {
	e, c, err := DecodeRawRequest(EncodeRawRequest(5, 17))
	if err != nil || e != 5 || c != 17 {
		t.Fatalf("round trip: %d %d %v", e, c, err)
	}
	if _, _, err := DecodeRawRequest([]byte{}); err == nil {
		t.Fatal("short raw request must error")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	id, err := DecodeHello(EncodeHello(12))
	if err != nil || id != 12 {
		t.Fatalf("round trip: %d %v", id, err)
	}
	if _, err := DecodeHello([]byte{0}); err == nil {
		t.Fatal("short hello must error")
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgLoadQuery: "load_query", MsgSummary: "summary",
		MsgRawBatch: "raw_batch", MsgType(200): "msg(200)",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", byte(ty), got, want)
		}
	}
}

// Property: frames round-trip arbitrary payloads.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(ty byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgType(ty), payload); err != nil {
			return false
		}
		msg, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return msg.Type == MsgType(ty) && bytes.Equal(msg.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
