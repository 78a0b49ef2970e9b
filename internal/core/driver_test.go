package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/trafficgen"
)

// parityPipeline builds the seeded four-monitor pipeline the parity and
// wire-golden tests share, with two-stage feedback on for every
// question so the epochs pull raw packets.
func parityPipeline(t *testing.T) *Pipeline {
	t.Helper()
	qs := testQuestions(t, 2500)
	fb := make(map[rules.AttackID]inference.FeedbackConfig, len(qs))
	for id, q := range qs {
		fb[id] = inference.FeedbackConfig{
			TauD1:       q.EffectiveTau(0.015),
			TauD2:       q.EffectiveTau(0.12),
			CountScale2: 0.55,
		}
	}
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller: ControllerConfig{
			Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serveLoopback serves each monitor over its own loopback TCP
// connection and returns the controller-side handles, in monitor order.
// Cleanup closes the listeners and handles, then waits for every server
// to return.
func serveLoopback(t *testing.T, mons []*Monitor) []Source {
	t.Helper()
	var wg sync.WaitGroup
	srcs := make([]Source, len(mons))
	// Registered first, so it runs after the listener cleanups below.
	t.Cleanup(func() {
		for _, s := range srcs {
			if s != nil {
				s.(*RemoteMonitor).Close()
			}
		}
		wg.Wait()
	})
	for i, m := range mons {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		wg.Add(1)
		go func(m *Monitor) {
			defer wg.Done()
			conn, err := ln.Accept()
			ln.Close()
			if err != nil {
				return
			}
			defer conn.Close()
			(&MonitorServer{Monitor: m}).Serve(conn)
		}(m)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		rm, err := DialMonitor(conn)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = rm
	}
	return srcs
}

// runParityWorkload drives three epochs of seeded mixed traffic through
// the parity pipeline, routed by its flow assigner. wired drives the
// epochs over loopback TCP instead — the same monitors behind
// MonitorServer, polled through RemoteMonitor — with the same driver.
// It returns the rendered alert stream and the final stats.
func runParityWorkload(t *testing.T, wired bool) (string, Stats) {
	t.Helper()
	p := parityPipeline(t)
	runEpoch := p.RunEpoch
	if wired {
		d := NewDriver(p.Controller, serveLoopback(t, p.Monitors), 0, nil)
		runEpoch = func() ([]*inference.Alert, error) {
			res, err := d.RunEpoch()
			if err == nil && res.Degraded {
				err = fmt.Errorf("epoch %d degraded: %+v", res.Epoch, res.Declines)
			}
			return res.Alerts, err
		}
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(31))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 31, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 31})
	var b strings.Builder
	for epoch := 0; epoch < 3; epoch++ {
		for _, lp := range mix.Batch(2500) {
			if err := p.Ingest(lp.Header); err != nil {
				t.Fatal(err)
			}
		}
		alerts, err := runEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "epoch %d: %d alerts\n", epoch, len(alerts))
		for _, a := range alerts {
			b.WriteString(a.String() + "\n")
		}
	}
	return b.String(), p.Controller.Stats()
}

// TestDeploymentParity pins the equivalence the epoch driver relies on:
// the same seeded workload yields byte-identical alerts and identical
// accounting whether the monitors are polled in-process or over the
// wire, feedback raw fetches included.
func TestDeploymentParity(t *testing.T) {
	local, localStats := runParityWorkload(t, false)
	wired, wiredStats := runParityWorkload(t, true)
	if local != wired {
		t.Errorf("alert streams differ:\n--- in-process ---\n%s--- wire ---\n%s", local, wired)
	}
	if localStats != wiredStats {
		t.Errorf("stats differ: in-process %+v, wire %+v", localStats, wiredStats)
	}
	if localStats.RawPacketsFetched == 0 {
		t.Fatalf("workload fetched no raw packets; the feedback path went untested: %+v", localStats)
	}
	if localStats.AlertsRaised == 0 {
		t.Fatalf("workload raised no alerts; the comparison is vacuous: %+v", localStats)
	}
}

// TestWireTraceGolden locks the span topology of the wire deployment
// (monitor spans shipped in trace-context blocks, controller-side ship
// and decode spans) the way TestPipelineTraceGolden locks the
// in-process one. Regenerate with -update-trace-golden.
func TestWireTraceGolden(t *testing.T) {
	withEpochTracing(t)
	runParityWorkload(t, true)
	got := topology(trace.Snapshot(0))

	golden := filepath.Join("testdata", "trace_topology_wire.golden")
	if *updateTraceGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-trace-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("wire trace topology drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDecliningMonitorParity pins the side records of a monitor that
// declines (fewer than MinBatch packets buffered) to the in-process
// behaviour: its sketch digest reaches the controller in the same
// epoch over the wire as in-process, so the merged digests and the
// volumetric report agree, and its collect span is sealed into the
// epoch that polled it.
func TestDecliningMonitorParity(t *testing.T) {
	withEpochTracing(t)
	flood := floodPackets(t, 53, 1040)
	type epochOut struct {
		digests int
		offered uint64
		vol     *VolumetricReport
	}
	run := func(wired bool) []epochOut {
		trace.Reset()
		p, err := NewPipeline(PipelineConfig{
			NumMonitors: 2,
			Summary:     smallSummaryConfig(),
			Sketch:      sketch.Config{Enabled: true},
			Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 1040)},
		})
		if err != nil {
			t.Fatal(err)
		}
		d := p.driver
		if wired {
			d = NewDriver(p.Controller, serveLoopback(t, p.Monitors), 0, nil)
		}
		var out []epochOut
		for epoch := 0; epoch < 2; epoch++ {
			// Monitor 0 summarizes; monitor 1 stays below MinBatch.
			for i, lp := range flood {
				if err := p.Monitors[min(i/1000, 1)].Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			res, err := d.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Declines) != 1 || res.Declines[0].MonitorID != 1 || res.Declines[0].Err != nil {
				t.Fatalf("epoch %d: declines %+v, want monitor 1's protocol decline", epoch, res.Declines)
			}
			o := epochOut{digests: len(res.Digests), vol: res.Volumetric}
			for _, dg := range res.Digests {
				o.offered += dg.Offered
			}
			out = append(out, o)
		}

		// The decliner's collect span, wherever the deployment times it,
		// belongs to the epoch that polled it.
		proc := int32(trace.ControllerProc)
		if wired {
			proc = 1
		}
		traces := trace.Snapshot(0)
		if len(traces) != 2 {
			t.Fatalf("wired=%v: sealed %d epoch traces, want 2", wired, len(traces))
		}
		for _, tr := range traces {
			var seqs []uint64
			for _, sp := range tr.Spans {
				if sp.Proc == proc && sp.Monitor == 1 && sp.Stage == trace.StageCollect {
					seqs = append(seqs, sp.Seq)
				}
			}
			if len(seqs) != 1 || seqs[0] != tr.Epoch {
				t.Errorf("wired=%v: epoch %d holds the decliner's collect spans for polls %v, want [%d]",
					wired, tr.Epoch, seqs, tr.Epoch)
			}
		}
		return out
	}
	local, wired := run(false), run(true)
	for e := range local {
		l, w := local[e], wired[e]
		if l.digests != 2 || l.offered != 1040 {
			t.Fatalf("epoch %d in-process: %d digests offering %d packets, want 2 and 1040", e, l.digests, l.offered)
		}
		if w.digests != l.digests || w.offered != l.offered {
			t.Errorf("epoch %d: wire merged %d digests offering %d packets, in-process %d and %d",
				e, w.digests, w.offered, l.digests, l.offered)
		}
		if l.vol == nil || len(l.vol.Verdicts) == 0 {
			t.Fatalf("epoch %d in-process: no volumetric verdict for the flood: %+v", e, l.vol)
		}
		if !reflect.DeepEqual(w.vol, l.vol) {
			t.Errorf("epoch %d: volumetric reports differ:\n wire       %+v\n in-process %+v", e, w.vol, l.vol)
		}
	}
}

var errFlaky = errors.New("flaky source down")

// flakySource is a Source whose first polls fail; afterwards it
// declines every epoch.
type flakySource struct {
	id, failures int
}

func (f *flakySource) ID() int { return f.id }

func (f *flakySource) Poll(uint64) ([]*summary.Summary, int, *sketch.Digest, error) {
	if f.failures > 0 {
		f.failures--
		return nil, 0, nil, errFlaky
	}
	return nil, 0, nil, nil
}

func (f *flakySource) RawPackets(uint64, int) []packet.Header { return nil }

func (f *flakySource) FinerSummary(uint64, int) (*summary.Summary, error) { return nil, nil }

// TestFailingSourceSealsEpoch pins the driver's error policy in-process:
// a source whose poll fails becomes a decline with Err set, inference
// runs on every other monitor's summaries, every monitor advances, the
// epoch's trace is sealed, and Pipeline.RunEpoch still reports the
// failure, wrapped with the monitor ID.
func TestFailingSourceSealsEpoch(t *testing.T) {
	run := func(flaky bool) ([]string, Stats) {
		p, err := NewPipeline(PipelineConfig{
			NumMonitors: 3,
			Summary:     smallSummaryConfig(),
			Controller:  ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 3000)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if flaky {
			p.driver.sources = append(p.driver.sources, &flakySource{id: 3, failures: 1})
		}
		mix := trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(41)),
			nil, trafficgen.MixConfig{Seed: 41})
		var alerts []string
		for epoch := 0; epoch < 2; epoch++ {
			for _, lp := range mix.Batch(3000) {
				if err := p.Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			as, err := p.RunEpoch()
			switch {
			case flaky && epoch == 0:
				if !errors.Is(err, errFlaky) || !strings.Contains(err.Error(), "monitor 3") {
					t.Fatalf("epoch 0: err = %v, want the flaky source's error naming monitor 3", err)
				}
			case err != nil:
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			for _, a := range as {
				alerts = append(alerts, a.String())
			}
			for _, m := range p.Monitors {
				m.mu.Lock()
				tick := m.buf.Epoch()
				m.mu.Unlock()
				if tick != uint64(epoch+1) {
					t.Fatalf("epoch %d: monitor %d at tick %d, want %d", epoch, m.ID(), tick, epoch+1)
				}
			}
		}
		return alerts, p.Controller.Stats()
	}
	clean, cleanStats := run(false)

	withEpochTracing(t)
	flaky, flakyStats := run(true)
	if strings.Join(flaky, "\n") != strings.Join(clean, "\n") || flakyStats != cleanStats {
		t.Fatalf("a failed poll changed what the other monitors contributed:\nflaky %v %+v\nclean %v %+v",
			flaky, flakyStats, clean, cleanStats)
	}

	// Both epochs are sealed, each with exactly one epoch span and one
	// poll span per source: the failed epoch's spans neither leak into
	// the next one nor get lost.
	traces := trace.Snapshot(0)
	if len(traces) != 2 {
		t.Fatalf("sealed %d epoch traces, want 2", len(traces))
	}
	for _, tr := range traces {
		counts := map[string]int{}
		for _, s := range tr.Spans {
			if s.Proc == trace.ControllerProc {
				counts[fmt.Sprintf("%s/%d", s.Stage, s.Monitor)]++
			}
		}
		want := map[string]int{"epoch/-1": 1, "collect/0": 1, "collect/1": 1, "collect/2": 1, "ship/3": 1}
		for k, n := range want {
			if counts[k] != n {
				t.Errorf("epoch %d: %d %s spans, want %d (all: %v)", tr.Epoch, counts[k], k, n, counts)
			}
		}
	}
}
