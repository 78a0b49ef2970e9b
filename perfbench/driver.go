package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// tickDeadline is the controller epoch period of §7: a tick that takes
// longer has missed its epoch and counts as a failed epoch.
const tickDeadline = 2 * time.Second

// p95Laps is the window, in laps, the tick p95 is taken over (120
// epochs, six beyond the percentile); the run reports the median over
// its windows, so a burst of outside load in one window does not set
// the run's tail.
const p95Laps = 4

// heapLaps is how many laps of each phase peak_heap_mb is sampled
// over: a fixed amount of work, so a faster program is not charged for
// the extra epochs of alerts the controller retains in a timed run.
const heapLaps = 5

// maxSealsPerEpoch bounds how many Ingest calls of one feeder in one
// epoch can seal a batch; the feeder keeps that many slowest calls.
const maxSealsPerEpoch = 16

// callTime is one Ingest call: its duration and start on the recorder
// clock.
type callTime struct{ dur, start int64 }

// feedStats are one feeder's per-epoch timings, taken only when traced.
type feedStats struct {
	decodeNs, ingestNs int64
	calls              int64
	start, end         int64
	// slow holds the slowest calls, slowest first. Sealing a batch runs
	// the SVD and k-means inside Ingest, so once the tick reports how
	// many batches sealed, the n slowest calls are exactly those.
	slow []callTime
}

func (f *feedStats) note(d, start int64) {
	f.ingestNs += d
	f.calls++
	if len(f.slow) == maxSealsPerEpoch && d <= f.slow[len(f.slow)-1].dur {
		return
	}
	i, _ := slices.BinarySearchFunc(f.slow, d, func(c callTime, d int64) int {
		if c.dur > d {
			return -1
		}
		return 1
	})
	f.slow = slices.Insert(f.slow, i, callTime{d, start})
	if len(f.slow) > maxSealsPerEpoch {
		f.slow = f.slow[:maxSealsPerEpoch]
	}
}

// feeder decodes one pcap stream and ingests it, one epoch's share at
// a time: into its monitor (wire workloads) or through Pipeline.Ingest.
// The bytes are the only input the program gets.
type feeder struct {
	ingest func(packet.Header) error
	data   []byte
	n      int
	rd     *pcap.Reader
	st     feedStats
}

func (f *feeder) feed(lapEpoch int, rec *recorder) error {
	if lapEpoch == 0 {
		rd, err := pcap.NewReader(bytes.NewReader(f.data))
		if err != nil {
			return err
		}
		f.rd = rd
	}
	f.st = feedStats{slow: f.st.slow[:0]}
	if rec != nil {
		f.st.start = rec.now()
	}
	var h packet.Header
	for i := 0; i < f.n; i++ {
		var t0, t1 int64
		if rec != nil {
			t0 = rec.now()
		}
		p, err := f.rd.Next()
		if err != nil {
			return fmt.Errorf("pcap record: %w", err)
		}
		if _, _, err := h.UnmarshalIPv4(p.Data); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if rec != nil {
			t1 = rec.now()
			f.st.decodeNs += t1 - t0
		}
		if err := f.ingest(h); err != nil {
			return err
		}
		if rec != nil {
			f.st.note(rec.now()-t1, t1)
		}
	}
	if rec != nil {
		f.st.end = rec.now()
	}
	return nil
}

// feedJob asks a feeder goroutine for one epoch.
type feedJob struct {
	lapEpoch int
	rec      *recorder
}

// runner drives one deployment through epochs: it is the epoch driver,
// calling each layer's entry point itself so every boundary can be
// timed from outside.
type runner struct {
	s  spec
	c  *corpus
	d  *deployment
	tr *traceState

	// feeders: one per monitor on wire workloads, one Pipeline.Ingest
	// feeder in-process.
	feeders []*feeder
	jobs    []chan feedJob
	done    chan error
	feedWG  sync.WaitGroup

	epoch int // global epoch counter
	// Per-monitor cumulative accounting for the conservation check
	// (in-process workloads use index 0 for the deployment total).
	offered, summarized, shed []int64
	// alerts[e], victim[e] and shape[e] are the per-epoch outcomes the
	// gates read; shape fingerprints the summaries the controller
	// received (origin, batch, size and cluster counts).
	alerts [][]rules.AttackID
	victim []bool
	shape  []uint64
	// gateFailures lists correctness-gate violations, one line each.
	gateFailures []string

	// Replay state for the traced run.
	ix   *rules.QuestionIndex
	ixQs []*rules.Question
	rngs []*rand.Rand
}

func newRunner(s spec, c *corpus, d *deployment) *runner {
	r := &runner{s: s, c: c, d: d, tr: d.tr}
	if s.wire {
		for m, mon := range d.mons {
			r.feeders = append(r.feeders, &feeder{ingest: mon.Ingest, data: c.pcaps[m], n: s.perMonitor})
		}
	} else {
		r.feeders = []*feeder{{ingest: d.pipe.Ingest, data: c.pcaps[0], n: s.perEpoch}}
	}
	n := len(r.feeders)
	r.offered, r.summarized, r.shed = make([]int64, n), make([]int64, n), make([]int64, n)
	return r
}

// startFeeders launches one goroutine per monitor feeder; stopFeeders
// ends them and waits.
func (r *runner) startFeeders() {
	r.done = make(chan error, len(r.feeders))
	for _, f := range r.feeders {
		jobs := make(chan feedJob)
		r.jobs = append(r.jobs, jobs)
		r.feedWG.Add(1)
		go func() {
			defer r.feedWG.Done()
			for j := range jobs {
				r.done <- f.feed(j.lapEpoch, j.rec)
			}
		}()
	}
}

func (r *runner) stopFeeders() {
	for _, j := range r.jobs {
		close(j)
	}
	r.feedWG.Wait()
	r.jobs = nil
}

// feed ingests one epoch of traffic: concurrently, one goroutine per
// feeder, or sequentially when no feeder goroutines run (the
// reference run).
func (r *runner) feed(lapEpoch int, rec *recorder) error {
	if r.jobs == nil {
		for _, f := range r.feeders {
			if err := f.feed(lapEpoch, rec); err != nil {
				return err
			}
		}
		return nil
	}
	for _, j := range r.jobs {
		j <- feedJob{lapEpoch, rec}
	}
	var first error
	for range r.jobs {
		if err := <-r.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// phaseStats accumulates one measured phase.
type phaseStats struct {
	epochs, failed int
	offered        int64
	wall           time.Duration // excludes the traced run's replays
	cpu            time.Duration // process CPU time, replays excluded
	// lapRates and lapCPURates are the offered packet rate of each
	// whole lap per second of wall time and of process CPU time; their
	// medians are robust to a burst of outside load during one lap.
	lapRates, lapCPURates []float64
	// ticks and cpuTicks are each tick's wall and process CPU time, ms.
	ticks, cpuTicks []float64
	// windowP95 and windowCPUP95 are the p95 of ticks and cpuTicks
	// within each window of p95Laps whole laps.
	windowP95, windowCPUP95 []float64
	peakHeap                uint64
	alerts                  map[rules.AttackID]int

	allocBytes      uint64
	gcCPU, totalCPU float64
	ctrl            core.Stats // controller accounting over the phase
	up, down        int64
	frames          int64
	sketchOffered   uint64
	shed, kept      uint64
	batches, sealed int64

	// Layer timings (traced phase).
	decodeNs, decodePkts     int64
	ingestNs, ingestCalls    int64
	sealNs                   int64
	collectNs, collects      int64
	pollNs, processNs        int64
	fetchCalls, fetchPkts    int64
	fetchNs                  int64
	buildNs, svdNs, kmeansNs int64
	kmeansIters, replays     int64
	encodeNs, decodeSumNs    int64
	codecSummaries           int64
	aggNs, matchNs           int64
	candidates, questions    int64
	spans                    []span
}

// rate is the phase's packet rate per second of wall time: the median
// over whole laps, or the phase average when no lap completed.
func (p *phaseStats) rate() float64 {
	if len(p.lapRates) > 0 {
		return quantile(p.lapRates, 0.5)
	}
	return float64(p.offered) / p.wall.Seconds()
}

// cpuRate is rate per second of the process's CPU time.
func (p *phaseStats) cpuRate() float64 {
	if len(p.lapCPURates) > 0 {
		return quantile(p.lapCPURates, 0.5)
	}
	return float64(p.offered) / p.cpu.Seconds()
}

// p95 is the p95 of ticks: the median over whole windows, or the p95
// of all ticks when no window completed.
func p95(ticks, windows []float64) float64 {
	if len(windows) > 0 {
		return quantile(windows, 0.5)
	}
	return quantile(ticks, 0.95)
}

// rateSamples describes what a rate was computed from.
func rateSamples(laps []float64, pkts int64, d time.Duration, clock string) string {
	total := fmt.Sprintf("%d pkts in %.2f %s", pkts, d.Seconds(), clock)
	if len(laps) == 0 {
		return total
	}
	return fmt.Sprintf("median of %d laps, %.0f to %.0f; %s", len(laps), slices.Min(laps), slices.Max(laps), total)
}

// counters snapshots the wire and feedback counters so a phase can
// report deltas.
type counters struct {
	up, down, frames, collectNs, collects int64
	fetchCalls, fetchPkts, fetchNs        int64
	totalAlloc                            uint64
	gcCPU, totalCPU                       float64
	ctrl                                  core.Stats
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (r *runner) snapshot() counters {
	var c counters
	for _, mc := range r.d.conns {
		c.up += mc.up.Load()
		c.down += mc.down.Load()
		c.frames += mc.rx.frames.Load() + mc.tx.frames.Load()
		c.collectNs += mc.collectNs.Load()
		c.collects += mc.collects.Load()
	}
	for _, rs := range r.d.raws {
		c.fetchCalls += rs.calls.Load()
		c.fetchPkts += rs.pkts.Load()
		c.fetchNs += rs.ns.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc = ms.TotalAlloc
	metrics.Read(cpuSamples)
	c.gcCPU, c.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	c.ctrl = r.d.ctrl.Stats()
	return c
}

// runPhase drives whole laps of epochs until at least seconds have
// passed (or maxEpochs ran, when positive). Ending on a lap boundary
// keeps the mix of epoch kinds identical from run to run. With rec
// non-nil the phase is traced: spans around every layer call, plus
// replays of the summarize, codec and inference steps.
func (r *runner) runPhase(seconds float64, maxEpochs int, rec *recorder) (*phaseStats, error) {
	p := &phaseStats{alerts: make(map[rules.AttackID]int)}
	r.tr.rec.Store(rec)
	defer r.tr.rec.Store(nil)
	if rec != nil {
		if err := r.prepareReplay(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	before := r.snapshot()
	start, startCPU := time.Now(), processCPU()
	var replay, replayCPU time.Duration
	lapStart, lapCPU, lapOffered := start, startCPU, int64(0)
	var lapReplay, lapReplayCPU time.Duration
	for {
		lapEpoch := r.epoch % r.s.lap
		if maxEpochs > 0 {
			if p.epochs >= maxEpochs {
				break
			}
		} else if lapEpoch == 0 && p.epochs > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		var epochID, epochStart int64
		if rec != nil {
			epochID, epochStart = rec.id(), rec.now()
		}
		if err := r.feed(lapEpoch, rec); err != nil {
			return nil, fmt.Errorf("epoch %d: feed: %w", r.epoch, err)
		}
		out := r.d.tick(uint64(r.epoch), epochID)
		if rec != nil {
			rec.record(epochID, 0, "epoch", int64(r.epoch), epochStart)
		}
		failed := r.account(p, out)
		if rec != nil {
			t0, c0 := time.Now(), processCPU()
			if err := r.traceEpoch(p, rec, epochID, out); err != nil {
				return nil, err
			}
			d, dc := time.Since(t0), processCPU()-c0
			replay, lapReplay = replay+d, lapReplay+d
			replayCPU, lapReplayCPU = replayCPU+dc, lapReplayCPU+dc
		}
		if lapEpoch == r.s.lap-1 {
			failed = r.checkLap(r.epoch-lapEpoch) || failed
		}
		if failed {
			p.failed++
		}
		if p.epochs < heapLaps*r.s.lap {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.peakHeap = max(p.peakHeap, ms.HeapInuse)
		}
		p.epochs++
		r.epoch++
		if lapEpoch == r.s.lap-1 {
			now, cpu := time.Now(), processCPU()
			pkts := float64(p.offered - lapOffered)
			p.lapRates = append(p.lapRates, pkts/(now.Sub(lapStart)-lapReplay).Seconds())
			p.lapCPURates = append(p.lapCPURates, pkts/(cpu-lapCPU-lapReplayCPU).Seconds())
			lapStart, lapCPU, lapOffered = now, cpu, p.offered
			lapReplay, lapReplayCPU = 0, 0
			if w := p95Laps * r.s.lap; p.epochs%w == 0 {
				p.windowP95 = append(p.windowP95, quantile(p.ticks[p.epochs-w:], 0.95))
				p.windowCPUP95 = append(p.windowCPUP95, quantile(p.cpuTicks[p.epochs-w:], 0.95))
			}
		}
	}
	p.wall = time.Since(start) - replay
	p.cpu = processCPU() - startCPU - replayCPU
	after := r.snapshot()
	p.up, p.down, p.frames = after.up-before.up, after.down-before.down, after.frames-before.frames
	p.collectNs += after.collectNs - before.collectNs
	p.collects += after.collects - before.collects
	p.fetchCalls, p.fetchPkts = after.fetchCalls-before.fetchCalls, after.fetchPkts-before.fetchPkts
	p.fetchNs += after.fetchNs - before.fetchNs
	p.allocBytes = after.totalAlloc - before.totalAlloc
	p.gcCPU, p.totalCPU = after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU
	p.ctrl = core.Stats{
		SummaryElements:   after.ctrl.SummaryElements - before.ctrl.SummaryElements,
		RawPacketsFetched: after.ctrl.RawPacketsFetched - before.ctrl.RawPacketsFetched,
		PacketsSummarized: after.ctrl.PacketsSummarized - before.ctrl.PacketsSummarized,
		Epochs:            after.ctrl.Epochs - before.ctrl.Epochs,
		AlertsRaised:      after.ctrl.AlertsRaised - before.ctrl.AlertsRaised,
	}
	if rec != nil {
		p.spans = rec.spans
	}
	return p, nil
}

// account books one tick: timings, traffic, the per-epoch conservation
// check (offered = shed + summarized + pending, per monitor over the
// wire and for the deployment in-process) and the outcomes the gates
// read. It reports whether the epoch failed.
func (r *runner) account(p *phaseStats, out tickOut) bool {
	failed := out.err != nil || out.degraded || out.tick > tickDeadline
	p.ticks = append(p.ticks, float64(out.tick)/1e6)
	p.cpuTicks = append(p.cpuTicks, float64(out.tickCPU)/1e6)
	p.pollNs += int64(out.poll)
	p.processNs += int64(out.process)
	if !r.d.wired {
		p.collectNs += out.collectNs
		p.collects += int64(len(r.d.mons))
	}
	for i, f := range r.feeders {
		r.offered[i] += int64(f.n)
		p.offered += int64(f.n)
	}
	for _, s := range out.summaries {
		r.summarized[r.slot(s.MonitorID)] += int64(s.BatchSize)
		p.batches++
		if s.BatchSize == r.s.summary.BatchSize {
			p.sealed++
		}
	}
	var epochOffered uint64
	for _, d := range out.digests {
		r.shed[r.slot(d.MonitorID)] += int64(d.Shed)
		p.shed += d.Shed
		p.kept += d.Kept
		epochOffered += d.Offered
	}
	p.sketchOffered += epochOffered
	pending := make([]int64, len(r.offered))
	for m, n := range out.pending {
		pending[r.slot(m)] += int64(n)
	}
	for i := range r.offered {
		if got := r.shed[i] + r.summarized[i] + pending[i]; got != r.offered[i] {
			r.fail("epoch %d: monitor slot %d: offered %d != shed %d + summarized %d + pending %d",
				r.epoch, i, r.offered[i], r.shed[i], r.summarized[i], pending[i])
			failed = true
		}
	}
	if r.s.sketch.Enabled && epochOffered != uint64(r.s.perEpoch) {
		r.fail("epoch %d: sketch digests offered %d, benchmark offered %d", r.epoch, epochOffered, r.s.perEpoch)
		failed = true
	}
	ids := make([]rules.AttackID, 0, len(out.alerts))
	for _, a := range out.alerts {
		ids = append(ids, a.Attack)
		p.alerts[a.Attack]++
	}
	r.alerts = append(r.alerts, ids)
	r.victim = append(r.victim, out.victim)
	h := fnv.New64a()
	var buf []byte
	for _, s := range out.summaries {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(s.MonitorID))
		buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.BatchSize))
		for _, c := range s.Counts {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		}
		h.Write(buf)
	}
	r.shape = append(r.shape, h.Sum64())
	if out.err != nil {
		r.fail("epoch %d: %v", r.epoch, out.err)
	}
	return failed
}

// slot maps a monitor to the feeder whose packets it received: its own
// on wire workloads, the one Pipeline.Ingest feeder in-process.
func (r *runner) slot(monitor int) int {
	if r.s.wire {
		return monitor
	}
	return 0
}

func (r *runner) fail(format string, args ...any) {
	if len(r.gateFailures) < 20 {
		r.gateFailures = append(r.gateFailures, fmt.Sprintf(format, args...))
	}
}

// checkLap runs the detection gates over one finished lap starting at
// global epoch base: every campaign stage raises its own rule's alert
// while it is active; the flood alerts while active and, where the
// monitors ship sketch digests, the volumetric report names the victim
// in every flood epoch.
func (r *runner) checkLap(base int) bool {
	failed := false
	var targets []rules.AttackID
	switch {
	case r.s.attack == "campaign":
		targets = trafficgen.CampaignStages
	case r.s.attack != "":
		targets = []rules.AttackID{r.s.attack}
	}
	for _, id := range targets {
		active, hit := 0, false
		for e := 0; e < r.s.lap; e++ {
			if !slices.Contains(r.c.active[e], id) {
				continue
			}
			active++
			hit = hit || slices.Contains(r.alerts[base+e], id)
			if r.s.sketch.Enabled && !r.victim[base+e] {
				r.fail("epoch %d: volumetric report did not name the %s victim", base+e, id)
				failed = true
			}
		}
		if active == 0 {
			r.fail("lap at epoch %d: %s never active", base, id)
			failed = true
		} else if !hit {
			r.fail("lap at epoch %d: %s raised no alert in its %d active epochs", base, id, active)
			failed = true
		}
	}
	return failed
}

// prepareReplay builds what the traced run's replays need: the
// question index over the controller's questions in attack-ID order,
// and per-monitor k-means RNGs seeded like the monitors' summarizers.
func (r *runner) prepareReplay() error {
	if r.ix != nil {
		return nil
	}
	ids := make([]rules.AttackID, 0, len(r.d.qs.questions))
	for id := range r.d.qs.questions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r.ixQs = append(r.ixQs, r.d.qs.questions[id])
	}
	ix, err := rules.NewQuestionIndex(r.ixQs, nil)
	if err != nil {
		return err
	}
	r.ix = ix
	for i := range r.d.mons {
		r.rngs = append(r.rngs, rand.New(rand.NewSource(int64(i)+1)))
	}
	return nil
}

// traceEpoch attributes the epoch's feed time (decode, fast-path
// ingest, sealing calls) and replays its summaries through the layers
// whose cost the deployment hides inside larger calls.
func (r *runner) traceEpoch(p *phaseStats, rec *recorder, epochID int64, out tickOut) error {
	epoch := int64(r.epoch)
	// Sealed batches per feeder: the summaries that reached the full
	// batch size (a flushed batch is always smaller).
	sealed := make([]int, len(r.feeders))
	for _, s := range out.summaries {
		if s.BatchSize == r.s.summary.BatchSize {
			sealed[r.slot(s.MonitorID)]++
		}
	}
	for i, f := range r.feeders {
		st := &f.st
		p.decodeNs += st.decodeNs
		p.decodePkts += st.calls
		if sealed[i] > len(st.slow) {
			return fmt.Errorf("epoch %d: %d sealed batches exceed the %d slowest calls kept", epoch, sealed[i], len(st.slow))
		}
		feedID := rec.id()
		var sealNs int64
		for _, c := range st.slow[:sealed[i]] {
			sealNs += c.dur
			rec.add(span{ID: rec.id(), Parent: feedID, Name: "ingest.seal", Epoch: epoch, Start: c.start, End: c.start + c.dur})
		}
		rec.add(span{ID: feedID, Parent: epochID, Name: "feed", Epoch: epoch, Start: st.start, End: st.end})
		p.sealNs += sealNs
		p.ingestNs += st.ingestNs - sealNs
		p.ingestCalls += st.calls - int64(sealed[i])
	}

	replayID, replayStart := rec.id(), rec.now()
	timed := func(name string, fn func() error) (int64, error) {
		start := rec.now()
		err := fn()
		rec.record(rec.id(), replayID, name, epoch, start)
		return rec.now() - start, err
	}
	// Codec: marshal and unmarshal each summary the controller received.
	for _, s := range out.summaries {
		var b []byte
		ns, err := timed("replay.encode", func() (err error) { b, err = s.Marshal(); return err })
		if err != nil {
			return err
		}
		p.encodeNs += ns
		ns, err = timed("replay.decode", func() error { _, err := summary.Unmarshal(b); return err })
		if err != nil {
			return err
		}
		p.decodeSumNs += ns
		p.codecSummaries++
	}
	// Inference: aggregate, then the indexed match sweep.
	if len(out.summaries) > 0 {
		var agg *inference.Aggregate
		ns, err := timed("replay.aggregate", func() (err error) { agg, err = inference.AggregateSummaries(out.summaries); return err })
		if err != nil {
			return err
		}
		p.aggNs += ns
		ns, _ = timed("replay.match", func() error { inference.EvaluateAllIndexed(agg, r.ixQs, r.ix); return nil })
		p.matchNs += ns
		p.candidates += int64(inference.Candidates(agg, r.ix).Count())
		p.questions += int64(len(r.ixQs))
	}
	// Summarize sub-split: rebuild each summarized batch from the
	// monitor's retained raw packets and run the three stages with the
	// monitor's configuration.
	for _, s := range out.summaries {
		if err := r.replaySummarize(p, s, timed); err != nil {
			return err
		}
	}
	rec.record(replayID, 0, "replay", epoch, replayStart)
	return nil
}

func (r *runner) replaySummarize(p *phaseStats, s *summary.Summary, timed func(string, func() error) (int64, error)) error {
	cfg := r.s.summary
	n, pf := s.BatchSize, packet.NumFields
	k := min(cfg.Centroids, n)
	if !summary.PreferSplit(cfg.Rank, k, pf) {
		return fmt.Errorf("replay covers the split encoding only (r=%d k=%d)", cfg.Rank, k)
	}
	mon := r.d.mons[s.MonitorID]
	headers := make([]packet.Header, 0, n)
	for c := 0; c < s.K(); c++ {
		headers = append(headers, mon.RawPackets(s.Epoch, c)...)
	}
	if len(headers) != n {
		return fmt.Errorf("monitor %d batch %d: %d retained packets, summary stands for %d", s.MonitorID, s.Epoch, len(headers), n)
	}
	sc := linalg.GetScratch()
	defer linalg.PutScratch(sc)
	var x *linalg.Matrix
	ns, _ := timed("replay.build_matrix", func() error { x = summary.BuildMatrix(headers); return nil })
	p.buildNs += ns
	ur, sr, vr := sc.Matrix(n, cfg.Rank), sc.Floats(cfg.Rank), sc.Matrix(pf, cfg.Rank)
	ns, err := timed("replay.svd", func() error { return linalg.TruncatedSVDInto(x, cfg.Rank, ur, sr, vr, sc) })
	if err != nil {
		return err
	}
	p.svdNs += ns
	cents, assign, counts := linalg.NewMatrix(k, cfg.Rank), make([]int, n), make([]int, k)
	var iters int
	ns, err = timed("replay.kmeans", func() (err error) {
		_, iters, err = linalg.KMeansInto(ur, k, r.rngs[s.MonitorID], linalg.KMeansConfig{}, sc, cents, assign, counts)
		return err
	})
	if err != nil {
		return err
	}
	p.kmeansNs += ns
	p.kmeansIters += int64(iters)
	p.replays++
	return nil
}

// reference replays the first epochs of the run on a fresh in-process
// deployment built from the same inputs and returns the runner, whose
// per-epoch alerts and summary fingerprints the caller compares. For
// wire workloads this is the loopback path's twin without the wire;
// for in-process workloads it is a second run of the seed.
func reference(s spec, c *corpus, qs questionSet, workers, epochs int) (*runner, error) {
	d, err := newDeployment(s, qs, workers, false, &traceState{})
	if err != nil {
		return nil, err
	}
	defer d.close()
	r := newRunner(s, c, d)
	if _, err := r.runPhase(0, epochs, nil); err != nil {
		return nil, err
	}
	return r, nil
}
