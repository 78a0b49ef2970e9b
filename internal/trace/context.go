package trace

import (
	"encoding/binary"
	"fmt"
)

// Context is the compact trace-context record a monitor ships on the
// decline frame that ends each poll: every span staged since the last
// poll, plus the send timestamp the controller uses to shift the spans
// into its own clock (AddRemoteContext).
//
// Wire format (big-endian), the body of a wire.ExtTrace record, which
// delimits and versions it:
//
//	uint32   monitor ID
//	int64    send time, Unix nanoseconds
//	uint16   span count
//	span ×   byte stage, uint64 seq, int64 start (Unix ns), int64 dur (ns)
//
// With tracing disabled no record is sent at all, so frames stay
// byte-identical to a build without tracing.
type Context struct {
	// MonitorID is the sending monitor.
	MonitorID int
	// SentUnixNano is the monitor's clock at context assembly.
	SentUnixNano int64
	// Spans are the staged spans, Proc/Monitor already stamped.
	Spans []SpanRecord
}

const (
	// ctxHeaderSize is monitorID + sent + count.
	ctxHeaderSize = 4 + 8 + 2
	// ctxSpanSize is one encoded span: stage + seq + start + dur.
	ctxSpanSize = 1 + 8 + 8 + 8
	// maxContextSpans bounds a decoded block; a monitor stages at most
	// maxStagedSpans, so anything above is corrupt.
	maxContextSpans = maxStagedSpans
)

// AppendWire appends the context's wire encoding to dst.
//
//jaal:pair DecodeContext
func (c *Context) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.MonitorID))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.SentUnixNano))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.Spans)))
	for _, s := range c.Spans {
		dst = append(dst, byte(s.Stage))
		dst = binary.BigEndian.AppendUint64(dst, s.Seq)
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Start))
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Dur))
	}
	return dst
}

// DecodeContext parses a trace-context body. The record's boundaries
// are exact, so truncation or an inconsistent length is an error.
func DecodeContext(p []byte) (*Context, error) {
	if len(p) < ctxHeaderSize {
		return nil, fmt.Errorf("trace: context block of %d bytes, want >= %d", len(p), ctxHeaderSize)
	}
	n := int(binary.BigEndian.Uint16(p[12:]))
	if n > maxContextSpans {
		return nil, fmt.Errorf("trace: context claims %d spans, limit %d", n, maxContextSpans)
	}
	if want := ctxHeaderSize + n*ctxSpanSize; len(p) != want {
		return nil, fmt.Errorf("trace: context block of %d bytes, want %d for %d spans", len(p), want, n)
	}
	c := &Context{
		MonitorID:    int(binary.BigEndian.Uint32(p[0:])),
		SentUnixNano: int64(binary.BigEndian.Uint64(p[4:])),
	}
	off := ctxHeaderSize
	if n > 0 {
		c.Spans = make([]SpanRecord, n)
	}
	for i := 0; i < n; i++ {
		c.Spans[i] = SpanRecord{
			Stage:   Stage(p[off]),
			Proc:    int32(c.MonitorID),
			Monitor: int32(c.MonitorID),
			Seq:     binary.BigEndian.Uint64(p[off+1:]),
			Start:   int64(binary.BigEndian.Uint64(p[off+9:])),
			Dur:     int64(binary.BigEndian.Uint64(p[off+17:])),
		}
		off += ctxSpanSize
	}
	return c, nil
}
