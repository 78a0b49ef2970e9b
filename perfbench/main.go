// Command perfbench is the repository's end-to-end benchmark: it
// generates a workload from a seed, runs it through the real monitor
// and controller code — acting as the epoch driver the way
// jaal-controller does — checks the alerts, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) as
// one JSON line. README.md describes the workloads, metrics and sizing.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload clean_wire --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/par"
	"repro/internal/rules"
)

// setupRuns is how often an untraced run sets up; setup_s is the
// median. Set-up takes well under a second, so one sample would spread
// with every hiccup of the machine.
const setupRuns = 15

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is where the traced run writes its spans ("" = nowhere).
	out string
	// setups is how often set-up runs; the median is setup_s.
	setups int
	// epochs, when positive, replaces the time budget: each phase runs
	// exactly that many epochs (the benchmark's own test).
	epochs int
	// log receives the human-readable report.
	log io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "clean_wire", "workload: clean_wire, attack_feedback or overload_rules10k")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's traffic is generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time per run (rounded up to whole laps of the workload)")
	traceN := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the traced run's span dump (empty = none)")
	flag.Parse()
	o.trace = *traceN == 1
	o.setups = setupRuns
	o.log = os.Stdout
	if o.out != "" {
		o.out = filepath.Join(o.out, "trace")
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run: repeated set-up, the measured
// phase(s), the correctness gate, and the metrics.
func run(o options) (*result, error) {
	s, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setups < 1 || o.trace {
		// A traced run does not report setup_s: one set-up suffices.
		o.setups = 1
	}
	// Concurrency discipline: feeders, loopback connections and pool
	// workers never outnumber the cores.
	nproc := runtime.NumCPU()
	feeders, conns := 1, 0
	if s.wire {
		feeders, conns = numMonitors, numMonitors
	}
	if feeders > nproc || conns > nproc || par.Size() > nproc {
		return nil, fmt.Errorf("concurrency exceeds %d cores: %d feeders, %d connections, %d pool workers",
			nproc, feeders, conns, par.Size())
	}
	workers := nproc

	tr := &traceState{}
	var (
		c      *corpus
		qs     questionSet
		d      *deployment
		setups []float64
	)
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for i := 0; i < o.setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			if err := c.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := processCPU()
		var err error
		if c, err = generate(s, o.seed); err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		if qs, err = buildQuestions(s); err != nil {
			return nil, fmt.Errorf("rules: %w", err)
		}
		if d, err = newDeployment(s, qs, workers, s.wire, tr); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		setups = append(setups, (processCPU() - t0).Seconds())
	}

	r := newRunner(s, c, d)
	r.startFeeders()
	var phases []*phaseStats
	var err error
	if o.trace {
		// An untraced half, then a traced half: the difference in
		// packet rate is the tracing overhead.
		var pa, pb *phaseStats
		if pa, err = r.runPhase(o.seconds/2, o.epochs, nil); err == nil {
			pb, err = r.runPhase(o.seconds/2, o.epochs, newRecorder())
		}
		phases = []*phaseStats{pa, pb}
	} else {
		var p *phaseStats
		p, err = r.runPhase(o.seconds, o.epochs, nil)
		phases = []*phaseStats{p}
	}
	r.stopFeeders()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Correctness gate, second half: the first lap again on a fresh
	// in-process deployment must receive the same summaries and raise
	// the same (attack, epoch) alerts.
	refEpochs := min(s.lap, r.epoch)
	ref, err := reference(s, c, qs, workers, refEpochs)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	mismatched := 0
	for e := 0; e < refEpochs; e++ {
		got, want := slices.Clone(r.alerts[e]), slices.Clone(ref.alerts[e])
		slices.Sort(got)
		slices.Sort(want)
		switch {
		case r.shape[e] != ref.shape[e]:
			mismatched++
			r.fail("epoch %d: summaries differ from the in-process reference", e)
		case !slices.Equal(got, want):
			mismatched++
			r.fail("epoch %d: alerts %v, in-process reference %v", e, got, want)
		}
	}

	res := &result{Correct: len(r.gateFailures) == 0, Metrics: map[string]metric{}}
	for _, p := range phases {
		res.Attempted += p.epochs
		res.Failed += p.failed
	}
	res.Failed += mismatched

	w := o.log
	first := phases[0]
	corpusBytes := 0
	for _, b := range c.pcaps {
		corpusBytes += len(b)
	}
	fmt.Fprintf(w, "# perfbench %s seed %d trace %v: %d set-ups, %d epochs measured (lap %d), %d cores, %.1f MB corpus\n",
		s.name, o.seed, o.trace, len(setups), first.epochs, s.lap, nproc, float64(corpusBytes)/1e6)
	if o.trace {
		pb := phases[1]
		for _, m := range perLayer(s, first, pb) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		report(w, "per-layer metrics (traced half unless noted)", perLayer(s, first, pb))
		printSelfTimes(w, selfTimes(pb.spans), pb.epochs)
		if o.out != "" {
			path, err := writeSpans(o.out, s.name, pb.spans)
			if err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(w, "# %d spans written to %s\n", len(pb.spans), path)
		}
	} else {
		for _, m := range endToEnd(s, first, setups) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		report(w, "end-to-end metrics", endToEnd(s, first, setups))
		report(w, "also measured (per-layer metrics of the untraced run)", untracedExtras(s, first))
	}
	printAlerts(w, first)
	fmt.Fprintf(w, "# correctness gate: conservation every epoch, %d reference epochs compared, %d lap gates; %d failures\n",
		refEpochs, r.epoch/s.lap, len(r.gateFailures))
	for _, f := range r.gateFailures {
		fmt.Fprintf(w, "#   FAIL %s\n", f)
	}
	return res, nil
}

// named is a metric with its sample description, for the report.
type named struct {
	name    string
	value   float64
	unit    string
	samples string
}

func endToEnd(s spec, p *phaseStats, setups []float64) []named {
	epochs := fmt.Sprintf("%d epochs", p.epochs)
	return []named{
		{"setup_s", quantile(setups, 0.5), "s", fmt.Sprintf("CPU time, median of %d set-ups", len(setups))},
		{"pkts_per_cpu_s", p.cpuRate(), "pkt/cpu-s", rateSamples(p.lapCPURates, p.offered, p.cpu, "CPU s")},
		{"epoch_cpu_ms_p50", quantile(p.cpuTicks, 0.5), "ms", epochs},
		{"epoch_cpu_ms_p95", p95(p.cpuTicks, p.windowCPUP95), "ms", windows(s, p.windowCPUP95)},
		{"overhead_frac", p.ctrl.OverheadFraction(), "ratio", epochs},
		{"kept_frac", 1 - per(float64(p.shed), p.offered), "ratio", fmt.Sprintf("%d pkts", p.offered)},
		{"peak_heap_mb", float64(p.peakHeap) / 1e6, "MB", fmt.Sprintf("%d samples", min(p.epochs, heapLaps*s.lap))},
	}
}

// windows describes a p95 taken as the median over windows.
func windows(s spec, ws []float64) string {
	return fmt.Sprintf("median over %d windows of %d epochs", len(ws), p95Laps*s.lap)
}

// untracedExtras are the per-layer metrics that need no tracing: the
// untraced run prints them too, next to the end-to-end ones.
func untracedExtras(s spec, p *phaseStats) []named {
	epochs := fmt.Sprintf("%d epochs", p.epochs)
	pkts := fmt.Sprintf("%d pkts", p.offered)
	return []named{
		{"pkts_per_s", p.rate(), "pkt/s", rateSamples(p.lapRates, p.offered, p.wall, "s")},
		{"epoch_ms_p50", quantile(p.ticks, 0.5), "ms", epochs},
		{"epoch_ms_p95", p95(p.ticks, p.windowP95), "ms", windows(s, p.windowP95)},
		{"wire_bytes_per_pkt", per(float64(p.up+p.down), p.offered), "B/pkt", pkts},
		{"shed_frac", per(float64(p.shed), p.offered), "ratio", pkts},
		{"epoch_fail_frac", per(float64(p.failed), int64(p.epochs)), "ratio", epochs},
		{"runtime.alloc_bytes_per_pkt", per(float64(p.allocBytes), p.offered), "B", pkts},
		{"runtime.gc_cpu_frac", ratio(p.gcCPU, p.totalCPU), "ratio", "1 run"},
		{"sketch.offered_pkts", per(float64(p.sketchOffered), int64(p.epochs)), "pkt", epochs},
		{"sketch.shed_pkts", per(float64(p.shed), int64(p.epochs)), "pkt", epochs},
		{"sketch.kept_pkts", per(float64(p.kept), int64(p.epochs)), "pkt", epochs},
		{"summary.batches", per(float64(p.batches), int64(p.epochs)), "count", epochs},
		{"wire.up_bytes_per_epoch", per(float64(p.up), int64(p.epochs)), "B", epochs},
		{"wire.down_bytes_per_epoch", per(float64(p.down), int64(p.epochs)), "B", epochs},
		{"wire.frames_per_epoch", per(float64(p.frames), int64(p.epochs)), "count", epochs},
		{"controller.alerts_per_epoch", per(float64(p.ctrl.AlertsRaised), int64(p.epochs)), "count", epochs},
		{"feedback.fetch_calls_per_epoch", per(float64(p.fetchCalls), int64(p.epochs)), "count", epochs},
		{"feedback.raw_pkts_per_epoch", per(float64(p.fetchPkts), int64(p.epochs)), "pkt", epochs},
		{"monitor.collect_ms_per_poll", per(float64(p.collectNs)/1e6, p.collects), "ms", fmt.Sprintf("%d polls", p.collects)},
		{"transport.poll_ms", per(float64(p.pollNs)/1e6, int64(p.epochs)), "ms", epochs},
		{"controller.process_ms", per(float64(p.processNs)/1e6, int64(p.epochs)), "ms", epochs},
	}
}

// perLayer assembles the traced run's metrics: counts and e2e-grade
// ratios from the untraced half pa, timings from the traced half pb.
func perLayer(s spec, pa, pb *phaseStats) []named {
	traced := map[string]named{}
	for _, m := range untracedExtras(s, pb) {
		traced[m.name] = m
	}
	out := untracedExtras(s, pa)
	for i, m := range out {
		switch m.name {
		// Layer timings come from the traced half, beside their spans.
		case "monitor.collect_ms_per_poll", "transport.poll_ms", "controller.process_ms":
			out[i] = traced[m.name]
		default:
			out[i].samples += ", untraced half"
		}
	}
	batches := fmt.Sprintf("%d batches", pb.replays)
	summaries := fmt.Sprintf("%d summaries", pb.codecSummaries)
	epochs := fmt.Sprintf("%d epochs", pb.epochs)
	ppsA, ppsB := pa.rate(), pb.rate()
	return append(out,
		named{"pcap.decode_ns_per_pkt", per(float64(pb.decodeNs), pb.decodePkts), "ns", fmt.Sprintf("%d pkts", pb.decodePkts)},
		named{"monitor.ingest_ns_per_pkt", per(float64(pb.ingestNs), pb.ingestCalls), "ns", fmt.Sprintf("%d calls", pb.ingestCalls)},
		named{"monitor.seal_ms_per_batch", per(float64(pb.sealNs)/1e6, pb.sealed), "ms", fmt.Sprintf("%d seals", pb.sealed)},
		named{"summary.build_matrix_ms", per(float64(pb.buildNs)/1e6, pb.replays), "ms", batches},
		named{"linalg.svd_ms", per(float64(pb.svdNs)/1e6, pb.replays), "ms", batches},
		named{"linalg.kmeans_ms", per(float64(pb.kmeansNs)/1e6, pb.replays), "ms", batches},
		named{"linalg.kmeans_iters", per(float64(pb.kmeansIters), pb.replays), "count", batches},
		named{"summary.encode_us", per(float64(pb.encodeNs)/1e3, pb.codecSummaries), "us", summaries},
		named{"summary.decode_us", per(float64(pb.decodeSumNs)/1e3, pb.codecSummaries), "us", summaries},
		named{"inference.aggregate_ms", per(float64(pb.aggNs)/1e6, int64(pb.epochs)), "ms", epochs},
		named{"inference.match_ms", per(float64(pb.matchNs)/1e6, int64(pb.epochs)), "ms", epochs},
		named{"rules.candidate_frac", per(float64(pb.candidates), pb.questions), "ratio", epochs},
		named{"feedback.fetch_us_per_call", per(float64(pb.fetchNs)/1e3, pb.fetchCalls), "us", fmt.Sprintf("%d fetches", pb.fetchCalls)},
		named{"trace.pkts_per_s", ppsB, "pkt/s", rateSamples(pb.lapRates, pb.offered, pb.wall, "s") + ", replays excluded"},
		named{"trace.overhead_pkts_per_s", ppsA - ppsB, "pkt/s", "untraced half minus traced half"},
	)
}

// ratio is a/b, or 0 for an empty denominator (a layer the workload
// does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// per is v per n.
func per(v float64, n int64) float64 { return ratio(v, float64(n)) }

func report(w io.Writer, title string, ms []named) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "#   %-32s %16.6g %-6s  (%s)\n", m.name, m.value, m.unit, m.samples)
	}
}

// printAlerts reports what the run detected, per 100 epochs, with the
// generated scale rules folded into one entry. Alerts on the clean
// workload are reported as found, not gated: they are the detector's
// false-positive rate on background traffic.
func printAlerts(w io.Writer, p *phaseStats) {
	per100 := func(n int) float64 { return 100 * float64(n) / float64(max(p.epochs, 1)) }
	var ids []rules.AttackID
	genRules, genAlerts := 0, 0
	for id, n := range p.alerts {
		if strings.HasPrefix(string(id), "gen-") {
			genRules++
			genAlerts += n
			continue
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	fmt.Fprintf(w, "# alerts per 100 epochs:")
	if len(p.alerts) == 0 {
		fmt.Fprintf(w, " none")
	}
	for _, id := range ids {
		fmt.Fprintf(w, " %s %.1f", id, per100(p.alerts[id]))
	}
	if genRules > 0 {
		fmt.Fprintf(w, " generated-rules %.1f (%d distinct rules)", per100(genAlerts), genRules)
	}
	fmt.Fprintln(w)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
