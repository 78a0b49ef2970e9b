package sketch

import (
	"encoding/binary"
	"fmt"
)

// digestMaxHitters bounds the per-dimension heavy-hitter list.
const digestMaxHitters = 255

// HeavyHitter is one heavy key (an IPv4 address in the ingest digests)
// and its count-min estimate.
type HeavyHitter struct {
	Key   uint32
	Count uint64
}

// Digest is a monitor's per-epoch sketch summary: shed accounting
// totals, the flow-cardinality registers, and the top heavy hitters by
// destination and source. It is what the controller gets "for free"
// alongside the summaries to issue volumetric verdicts without raw
// fetches.
type Digest struct {
	MonitorID int
	Epoch     uint64
	// Offered/Shed/Kept are the epoch's packet accounting: every packet
	// offered to Ingest, the subset shed before the batch slab, and the
	// subset admitted (Offered = Shed + Kept). Offered is the honest
	// pre-shed traffic volume the controller should weight by.
	Offered uint64
	Shed    uint64
	Kept    uint64
	// Flows is the flow-cardinality sketch (nil only in hand-built
	// digests; the codec always carries registers).
	Flows *HLL
	// TopDst and TopSrc are the heaviest destination and source
	// addresses with their count-min estimates, descending.
	TopDst []HeavyHitter
	TopSrc []HeavyHitter
}

// FlowEstimate returns the estimated distinct-flow count.
func (d *Digest) FlowEstimate() uint64 {
	if d.Flows == nil {
		return 0
	}
	return d.Flows.Estimate()
}

// AppendWire serializes the digest: u32 monitor ID, u64 epoch, u64
// offered, u64 shed, u64 kept, u16 register count + registers, then the
// two heavy-hitter lists as u8 count + (u32 key, u64 estimate) pairs.
// It is the body of a wire.ExtDigest record, which delimits it.
//
//jaal:pair DecodeDigest
func (d *Digest) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.MonitorID))
	dst = binary.BigEndian.AppendUint64(dst, d.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, d.Offered)
	dst = binary.BigEndian.AppendUint64(dst, d.Shed)
	dst = binary.BigEndian.AppendUint64(dst, d.Kept)
	flows := d.Flows
	if flows == nil {
		flows = NewHLL()
	}
	dst = binary.BigEndian.AppendUint16(dst, hllRegisters)
	dst = flows.AppendWire(dst)
	for _, hh := range [][]HeavyHitter{d.TopDst, d.TopSrc} {
		if len(hh) > digestMaxHitters {
			hh = hh[:digestMaxHitters]
		}
		dst = append(dst, byte(len(hh)))
		for _, h := range hh {
			dst = binary.BigEndian.AppendUint32(dst, h.Key)
			dst = binary.BigEndian.AppendUint64(dst, h.Count)
		}
	}
	return dst
}

// DecodeDigest parses a digest body. The body must be exact: anything
// malformed, truncated or trailing is an error.
func DecodeDigest(body []byte) (*Digest, error) {
	const fixed = 4 + 8 + 8 + 8 + 8 + 2
	if len(body) < fixed {
		return nil, fmt.Errorf("sketch: digest body truncated (%d bytes)", len(body))
	}
	d := &Digest{
		MonitorID: int(binary.BigEndian.Uint32(body[0:4])),
		Epoch:     binary.BigEndian.Uint64(body[4:12]),
		Offered:   binary.BigEndian.Uint64(body[12:20]),
		Shed:      binary.BigEndian.Uint64(body[20:28]),
		Kept:      binary.BigEndian.Uint64(body[28:36]),
	}
	regs := int(binary.BigEndian.Uint16(body[36:38]))
	if regs != hllRegisters {
		return nil, fmt.Errorf("sketch: a digest carries %d hll registers, got %d", hllRegisters, regs)
	}
	body = body[fixed:]
	flows, err := decodeHLL(body)
	if err != nil {
		return nil, err
	}
	d.Flows = flows
	body = body[hllRegisters:]
	for i := 0; i < 2; i++ {
		if len(body) < 1 {
			return nil, fmt.Errorf("sketch: digest heavy-hitter list %d truncated", i)
		}
		n := int(body[0])
		body = body[1:]
		if len(body) < n*12 {
			return nil, fmt.Errorf("sketch: digest heavy-hitter entries truncated (have %d, need %d)", len(body), n*12)
		}
		hh := make([]HeavyHitter, n)
		for j := range hh {
			hh[j].Key = binary.BigEndian.Uint32(body[j*12:])
			hh[j].Count = binary.BigEndian.Uint64(body[j*12+4:])
		}
		body = body[n*12:]
		if i == 0 {
			d.TopDst = hh
		} else {
			d.TopSrc = hh
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes after digest", len(body))
	}
	return d, nil
}
