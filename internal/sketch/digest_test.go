package sketch

import (
	"bytes"
	"testing"
)

func sampleDigest() *Digest {
	flows := NewHLL()
	for i := uint64(0); i < 500; i++ {
		flows.Add(i * 0x9e3779b97f4a7c15)
	}
	return &Digest{
		MonitorID: 3,
		Epoch:     42,
		Offered:   20000,
		Shed:      12000,
		Kept:      8000,
		Flows:     flows,
		TopDst: []HeavyHitter{
			{Key: 0x0A00002A, Count: 9000},
			{Key: 0x0A000001, Count: 400},
		},
		TopSrc: []HeavyHitter{{Key: 0xC0A80001, Count: 8800}},
	}
}

func TestDigestWireRoundTrip(t *testing.T) {
	d := sampleDigest()
	got, err := DecodeDigest(d.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.MonitorID != d.MonitorID || got.Epoch != d.Epoch ||
		got.Offered != d.Offered || got.Shed != d.Shed || got.Kept != d.Kept {
		t.Fatalf("accounting changed across round-trip: %+v", got)
	}
	if got.FlowEstimate() != d.FlowEstimate() {
		t.Fatalf("flow estimate %d != %d", got.FlowEstimate(), d.FlowEstimate())
	}
	if len(got.TopDst) != 2 || got.TopDst[0] != d.TopDst[0] || got.TopDst[1] != d.TopDst[1] {
		t.Fatalf("TopDst changed: %+v", got.TopDst)
	}
	if len(got.TopSrc) != 1 || got.TopSrc[0] != d.TopSrc[0] {
		t.Fatalf("TopSrc changed: %+v", got.TopSrc)
	}
}

// The digest is a record body: the envelope delimits it, so every
// truncation, a trailing byte, and a wrong register count are errors.
func TestDigestDecodeRejectsCorruption(t *testing.T) {
	wire := sampleDigest().AppendWire(nil)
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodeDigest(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	if _, err := DecodeDigest(append(bytes.Clone(wire), 0)); err == nil {
		t.Fatal("trailing byte must fail")
	}
	bad := bytes.Clone(wire)
	bad[37]++ // register count
	if _, err := DecodeDigest(bad); err == nil {
		t.Fatal("wrong register count must fail")
	}
}

// FuzzDecodeDigest shakes the body decoder with arbitrary bytes; it
// must never panic, and every accepted body must re-encode to itself.
func FuzzDecodeDigest(f *testing.F) {
	f.Add(sampleDigest().AppendWire(nil))
	f.Add((&Digest{}).AppendWire(nil))
	short := sampleDigest().AppendWire(nil)
	f.Add(short[:9])
	f.Fuzz(func(t *testing.T, p []byte) {
		d, err := DecodeDigest(p)
		if err != nil {
			return
		}
		if re := d.AppendWire(nil); !bytes.Equal(re, p) {
			t.Fatalf("accepted digest did not round-trip:\n in  %x\n out %x", p, re)
		}
	})
}

func TestIngestDisabled(t *testing.T) {
	g, err := NewIngest(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g != nil {
		t.Fatal("disabled config must yield a nil pass")
	}
}

func TestIngestKeepsEverythingBelowWatermark(t *testing.T) {
	g, err := NewIngest(DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !g.Observe(uint32(i), uint32(i%7), uint64(i)) {
			t.Fatalf("packet %d shed below the watermark", i)
		}
	}
	if g.Shed() != 0 || g.Kept() != 1000 || g.Offered() != 1000 {
		t.Fatalf("accounting off: offered=%d kept=%d shed=%d", g.Offered(), g.Kept(), g.Shed())
	}
}

func TestIngestZeroWatermarkNeverSheds(t *testing.T) {
	g, err := NewIngest(Config{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if !g.Observe(uint32(i), 1, uint64(i)) {
			t.Fatal("watermark 0 must never shed")
		}
	}
}

// Above the watermark, heavy-hitter traffic survives and mice are
// subsampled at 1-in-MiceKeep.
func TestIngestShedsMiceNotHeavy(t *testing.T) {
	cfg := DefaultConfig(500)
	// Lift the hard ceiling out of reach: this test pins the
	// watermark-band semantics (heavy exempt, mice subsampled);
	// TestIngestHardCeilingBoundsKept covers the ceiling itself.
	cfg.HardLimitFactor = 1000
	g, err := NewIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint32(0x0A00002A)
	heavyKept, miceOffered, miceKept := 0, 0, 0
	for i := 0; i < 20000; i++ {
		if i%2 == 0 {
			// Heavy flow: half of all traffic hits one victim.
			if g.Observe(uint32(0xC0A80000+i%4), victim, uint64(i%64)) {
				heavyKept++
			}
		} else {
			// Mice: unique src/dst/flow per packet.
			miceOffered++
			if g.Observe(uint32(i)<<8, uint32(i)|0xF0000000, uint64(i)*0x9e3779b97f4a7c15) {
				miceKept++
			}
		}
	}
	if g.Offered() != 20000 || g.Kept()+g.Shed() != 20000 {
		t.Fatalf("accounting off: offered=%d kept=%d shed=%d", g.Offered(), g.Kept(), g.Shed())
	}
	if g.Shed() == 0 {
		t.Fatal("overloaded run must shed")
	}
	if heavyKept != 10000 {
		t.Fatalf("heavy-hitter packets kept %d of 10000 — heavy traffic must never be shed", heavyKept)
	}
	// Mice shed to roughly 1-in-MiceKeep past the watermark.
	if miceKept >= miceOffered/2 {
		t.Fatalf("mice kept %d of %d — subsampling not engaged", miceKept, miceOffered)
	}
	d := g.Digest(1, 9)
	if d.Offered != 20000 || d.Shed != g.Shed() || d.Kept != g.Kept() {
		t.Fatalf("digest accounting mismatch: %+v", d)
	}
	if len(d.TopDst) == 0 || d.TopDst[0].Key != victim {
		t.Fatalf("victim missing from TopDst: %+v", d.TopDst)
	}
	if est := d.FlowEstimate(); est < 5000 {
		t.Fatalf("flow estimate %d too low for ~10k distinct mice flows", est)
	}

	g.Reset()
	if g.Offered() != 0 || g.Shed() != 0 || g.Kept() != 0 {
		t.Fatal("Reset must clear accounting")
	}
	if d2 := g.Digest(1, 10); len(d2.TopDst) != 0 || d2.FlowEstimate() != 0 {
		t.Fatalf("Reset must clear sketches: %+v", d2)
	}
}

// Past HardLimitFactor × watermark kept packets, even heavy-hitter
// traffic is shed: the epoch's slab admission is hard-bounded at any
// offered load.
func TestIngestHardCeilingBoundsKept(t *testing.T) {
	g, err := NewIngest(DefaultConfig(500)) // default factor 2 → ceiling 1000
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint32(0x0A00002A)
	for i := 0; i < 50000; i++ {
		// Every packet hits one destination: all-heavy traffic.
		g.Observe(uint32(0xC0A80000+i%4), victim, uint64(i%64))
	}
	if g.Kept() != 1000 {
		t.Fatalf("kept %d heavy packets, want exactly the 1000-packet ceiling", g.Kept())
	}
	if g.Shed() != 49000 {
		t.Fatalf("shed %d, want 49000", g.Shed())
	}
	// The digest still reports the full pre-shed picture.
	d := g.Digest(0, 1)
	if d.Offered != 50000 || len(d.TopDst) == 0 || d.TopDst[0].Key != victim {
		t.Fatalf("ceiling must not blind the digest: %+v", d)
	}
}

func TestIngestObserveZeroAlloc(t *testing.T) {
	g, err := NewIngest(DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	var i uint32
	allocs := testing.AllocsPerRun(2000, func() {
		g.Observe(i, i%5, uint64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Ingest.Observe allocates %.1f times per op, want 0", allocs)
	}
}
