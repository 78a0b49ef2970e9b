package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"syscall"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// numMonitors is the deployment width of every workload: one monitor
// per core on the 2-core reference box, so monitors, feeders and
// loopback connections never outnumber CPUs.
const numMonitors = 2

// victim is the attacked host of every attack workload (10.0.0.42).
const victim = uint32(0x0A00002A)

// spec fixes one workload: its deployment shape, the traffic recipe and
// the detection configuration. Every field is a constant of the
// workload; only the traffic itself depends on the seed.
type spec struct {
	name string
	// wire selects the loopback-TCP deployment (MonitorServer + Poller);
	// otherwise monitors and controller share the process and traffic
	// enters through Pipeline.Ingest.
	wire bool
	// lap is the number of epochs of traffic generated in set-up; the
	// timed phase replays them in order, lap after lap.
	lap int
	// perMonitor is the packets each monitor ingests per epoch (wire
	// workloads: exact, per monitor); for in-process workloads
	// perEpoch is the total offered per epoch, split by flow assignment.
	perMonitor, perEpoch int
	summary              summary.Config
	sketch               sketch.Config
	// volume is the epoch volume the volumetric count thresholds are
	// calibrated for.
	volume int
	// scenarioLib selects the 11-rule scenario library instead of the
	// 7-rule base library; genRules adds that many generated rules
	// behind the question index.
	scenarioLib bool
	genRules    int
	// feedback turns on the two-stage feedback loop for every library
	// question at τ_d2 = fbTau2×τ_d1 and stage-2 count scale fbCount2.
	feedback         bool
	fbTau2, fbCount2 float64
	attack           rules.AttackID
	attackFrac       float64
	onset, offset    int // active window of the attack within a lap
	campaignStageLen int // campaign: attack packets per stage
}

// specs are the benchmark's workloads. Sizing notes live in README.md.
var specs = map[string]spec{
	"clean_wire": {
		name: "clean_wire", wire: true, lap: 30, perMonitor: 1600,
		summary: summary.Config{BatchSize: 1000, Rank: 12, Centroids: 200, MinBatch: 200},
		volume:  2 * 1600,
	},
	"attack_feedback": {
		name: "attack_feedback", wire: true, lap: 30, perMonitor: 1600,
		summary:     summary.Config{BatchSize: 1000, Rank: 12, Centroids: 200, MinBatch: 200},
		volume:      2 * 1600,
		scenarioLib: true,
		feedback:    true, fbTau2: 4, fbCount2: 0.5,
		attack: "campaign", attackFrac: 0.10, onset: 3, offset: 27,
		campaignStageLen: 8 * 320,
	},
	"overload_rules10k": {
		name: "overload_rules10k", lap: 30, perEpoch: 6400,
		summary: summary.Config{BatchSize: 500, Rank: 12, Centroids: 100, MinBatch: 100},
		sketch:  sketch.DefaultConfig(400),
		// Provisioned volume: both monitors' watermarks less the 25 %
		// headroom, as in the overload ablation.
		volume:   2 * 400 * 4 / 5,
		genRules: 10000,
		attack:   rules.AttackSYNFlood, attackFrac: 0.20, onset: 2, offset: 28,
	},
}

// env is the rule environment: HOME_NET = 10/8, where the generators
// place victims and most benign servers.
func env() *rules.Environment {
	e := rules.NewEnvironment()
	e.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	return e
}

// questionSet is the controller's translated rule set plus the
// feedback configs it runs with.
type questionSet struct {
	questions map[rules.AttackID]*rules.Question
	feedback  map[rules.AttackID]inference.FeedbackConfig
}

// buildQuestions translates (and for the scale workload generates) the
// workload's rules. The generated library has a fixed seed: it is the
// deployment's configuration, not traffic.
func buildQuestions(s spec) (questionSet, error) {
	e := env()
	tcfg := rules.TranslateConfig{DefaultDistanceThreshold: 0.05, VarianceThreshold: 0.003}
	var qs map[rules.AttackID]*rules.Question
	var err error
	if s.scenarioLib {
		qs, err = rules.ScenarioLibraryQuestions(e, tcfg)
	} else {
		qs, err = rules.LibraryQuestions(e, tcfg)
	}
	if err != nil {
		return questionSet{}, err
	}
	var fb map[rules.AttackID]inference.FeedbackConfig
	if s.feedback {
		fb = make(map[rules.AttackID]inference.FeedbackConfig, len(qs))
	}
	for id, q := range qs {
		q = q.ScaleForVolume(s.volume)
		qs[id] = q
		if fb != nil {
			fb[id] = inference.FeedbackConfig{
				TauD1: q.DistanceThreshold, TauD2: s.fbTau2 * q.DistanceThreshold, CountScale2: s.fbCount2,
			}
		}
	}
	if s.genRules > 0 {
		gen, err := rules.GenerateQuestions(rules.GenConfig{Rules: s.genRules, Seed: 42}, e, tcfg)
		if err != nil {
			return questionSet{}, err
		}
		for _, q := range gen {
			qs[rules.AttackID(fmt.Sprintf("gen-%07d", q.Rule.SID))] = q.ScaleForVolume(s.volume)
		}
	}
	return questionSet{questions: qs, feedback: fb}, nil
}

// corpus is one lap of generated traffic: what the program under test
// receives, plus the ground truth the correctness gate checks against.
type corpus struct {
	// pcaps holds the traffic as in-memory classic pcap bytes, mapped
	// outside the Go heap: per monitor, lap×perMonitor packets (wire
	// workloads), or one stream of lap×perEpoch packets for
	// Pipeline.Ingest (in-process).
	pcaps [][]byte
	// active[e] lists the attack IDs with packets in epoch e.
	active [][]rules.AttackID
}

// close releases the corpus's memory; the corpus is unusable after.
func (c *corpus) close() error {
	var first error
	for _, b := range c.pcaps {
		if err := syscall.Munmap(b); err != nil && first == nil {
			first = err
		}
	}
	c.pcaps = nil
	return first
}

// segments is how many independent background traces one lap is cut
// into, two epochs each. A seed fixes a trace's host and server
// populations, and how often benign centroids fall in the feedback
// loop's uncertain band follows them: with one trace per lap the
// feedback workload's raw pulls varied about 2x between seeds, with
// six still ±17 %, with fifteen ±3 %.
const segments = 15

// generate builds one lap of traffic from the seed. Wire workloads
// route each flow to a monitor by its symmetric flow hash and cut each
// monitor's stream into epochs of exactly perMonitor packets, so every
// epoch carries the same work.
func generate(s spec, seed int64) (*corpus, error) {
	var attack trafficgen.Attack
	var err error
	acfg := trafficgen.AttackConfig{Seed: seed + 1<<41, Victim: victim}
	switch {
	case s.attack == "campaign":
		attack, err = trafficgen.NewCampaign(acfg, s.campaignStageLen)
	case s.attack != "":
		attack, err = trafficgen.NewAttack(s.attack, acfg)
	}
	if err != nil {
		return nil, err
	}
	bgs := make([]*trafficgen.Background, segments)
	mixes := make([]*trafficgen.Mixer, segments)
	for i := range bgs {
		sub := seed*segments + int64(i)
		bgs[i] = trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(sub))
		if attack != nil {
			// The one attack (a campaign advances through its stages)
			// is spread over every segment's mixer.
			mixes[i] = trafficgen.NewMixer(bgs[i], attack, trafficgen.MixConfig{Seed: sub + 1<<40, AttackFraction: s.attackFrac})
		}
	}
	next := func(epoch int) trafficgen.LabeledPacket {
		seg := epoch * segments / s.lap
		if attack != nil && epoch >= s.onset && epoch < s.offset {
			return mixes[seg].Next()
		}
		return trafficgen.LabeledPacket{Header: bgs[seg].Next()}
	}
	c := &corpus{active: make([][]rules.AttackID, s.lap)}
	mark := func(e int, lp trafficgen.LabeledPacket) {
		if lp.Label != trafficgen.LabelAttack {
			return
		}
		if id := rules.AttackID(lp.Attack); !slices.Contains(c.active[e], id) {
			c.active[e] = append(c.active[e], id)
		}
	}

	// Draw the stream epoch by epoch (the attack window is in epochs).
	// Wire workloads place each packet on its flow's monitor until that
	// monitor's share of the epoch is full; in-process workloads keep
	// one stream and leave placement to the pipeline.
	streams, quota := 1, s.perEpoch
	if s.wire {
		streams, quota = numMonitors, s.perMonitor
	}
	type record struct {
		h     packet.Header
		epoch int
		index int
	}
	recs := make([][]record, streams)
	carry := make([][]trafficgen.LabeledPacket, streams)
	for e := 0; e < s.lap; e++ {
		n := make([]int, streams)
		emit := func(m int, lp trafficgen.LabeledPacket) {
			mark(e, lp)
			recs[m] = append(recs[m], record{lp.Header, e, n[m]})
			n[m]++
		}
		for m := range carry {
			for len(carry[m]) > 0 && n[m] < quota {
				emit(m, carry[m][0])
				carry[m] = carry[m][1:]
			}
		}
		for slices.Min(n) < quota {
			lp := next(e)
			m := int(lp.Header.Flow().FastHash() % uint64(streams))
			if n[m] >= quota {
				// This monitor's epoch is full: the packet opens its next
				// epoch instead, keeping each flow's packets in order.
				carry[m] = append(carry[m], lp)
				continue
			}
			emit(m, lp)
		}
	}

	// Write each stream as one classic pcap capture into memory mapped
	// outside the Go heap, as a capture file mapped into memory would be:
	// the corpus then neither counts in peak_heap_mb nor moves the
	// collector's pacing. Each mapping is sized up front.
	zeros := make([]byte, 1<<16)
	for m := range recs {
		size := pcapFileHeaderLen
		for i := range recs[m] {
			size += pcapRecordHeaderLen + datagramLen(&recs[m][i].h)
		}
		mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("map corpus: %w", err)
		}
		c.pcaps = append(c.pcaps, mem)
		buf := bytes.NewBuffer(mem[:0])
		w := pcap.NewWriter(buf, pcap.LinkTypeRaw, 0)
		for i := range recs[m] {
			rc := &recs[m][i]
			data, err := datagram(&rc.h, zeros)
			if err == nil {
				// Virtual time: epoch seconds, packet index as microseconds.
				err = w.WritePacket(pcap.Packet{TimestampSec: uint32(rc.epoch), TimestampNsec: uint32(rc.index) * 1000, Data: data})
			}
			if err != nil {
				c.close()
				return nil, err
			}
		}
		if err := w.Flush(); err != nil || buf.Len() != size || &buf.Bytes()[0] != &mem[0] {
			c.close()
			return nil, fmt.Errorf("write corpus: %d of %d bytes in place (%v)", buf.Len(), size, err)
		}
	}
	return c, nil
}

// Classic pcap framing: one file header, then a header per record.
const (
	pcapFileHeaderLen   = 24
	pcapRecordHeaderLen = 16
)

// transportHeaderLen is the length of h's option-less transport header.
func transportHeaderLen(h *packet.Header) int {
	if h.Protocol == packet.ProtoUDP {
		return packet.UDPHeaderLen
	}
	return packet.TCPHeaderLen
}

// datagramLen is the length of the datagram written for h: its IP total
// length, or the bare headers where the total length is shorter.
func datagramLen(h *packet.Header) int {
	return max(int(h.TotalLength), packet.IPv4HeaderLen+transportHeaderLen(h))
}

// datagram serializes h as a whole IPv4 datagram whose zero payload
// brings it to the generated IP total length, so the decoded header
// carries the length trafficgen drew. zeros must hold at least 64 KiB.
func datagram(h *packet.Header, zeros []byte) ([]byte, error) {
	payload := zeros[:datagramLen(h)-packet.IPv4HeaderLen-transportHeaderLen(h)]
	if h.Protocol == packet.ProtoUDP {
		return h.MarshalIPv4UDP(payload)
	}
	return h.MarshalIPv4TCP(payload)
}
