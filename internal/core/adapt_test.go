package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/trafficgen"
)

// countingSource wraps a monitor's raw source and counts how many times
// each (epoch, centroid) is pulled. The controller fetches different
// centroids concurrently, so the counters are guarded.
type countingSource struct {
	inner  RawSource
	mu     sync.Mutex
	calls  map[[2]uint64]int
	served int
}

func (s *countingSource) RawPackets(epoch uint64, centroid int) []packet.Header {
	hs := s.inner.RawPackets(epoch, centroid)
	s.mu.Lock()
	s.calls[[2]uint64{epoch, uint64(centroid)}]++
	s.served += len(hs)
	s.mu.Unlock()
	return hs
}

// TestFeedbackFetchSharedCentroidOnce pins the per-epoch raw-fetch
// memoization: when several questions' uncertain bands cover the same
// centroid, the monitor is asked for it exactly once and the transfer
// is accounted exactly once (stats equal the deduplicated header count
// actually served, not the per-question sum).
func TestFeedbackFetchSharedCentroidOnce(t *testing.T) {
	m, err := NewMonitor(1, smallSummaryConfig())
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(7))
	atk, _ := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 7, Victim: 0x0A000001})
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 7})
	for _, lp := range mix.Batch(4000) {
		if err := m.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	ss, _, err := m.CollectSummaries()
	if err != nil {
		t.Fatal(err)
	}

	qs := testQuestions(t, 4000)
	fb := make(map[rules.AttackID]inference.FeedbackConfig)
	for id := range qs {
		// τ_d1 = 0 forces every τ_d2 match into the uncertain band, so
		// all questions fetch and their fetch sets overlap heavily.
		fb[id] = inference.FeedbackConfig{TauD1: 0, TauD2: 0.2}
	}
	ctrl, err := NewController(ControllerConfig{
		Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{inner: m, calls: make(map[[2]uint64]int)}
	ctrl.RegisterSource(1, src)
	if _, err := ctrl.ProcessEpoch(ss); err != nil {
		t.Fatal(err)
	}
	if len(src.calls) == 0 {
		t.Fatal("workload produced no raw fetches; the test exercises nothing")
	}
	for key, n := range src.calls {
		if n != 1 {
			t.Errorf("centroid (epoch %d, c %d) fetched %d times, want 1", key[0], key[1], n)
		}
	}
	if st := ctrl.Stats(); st.RawPacketsFetched != src.served {
		t.Fatalf("stats count %d raw headers, source served %d — transfer double-counted",
			st.RawPacketsFetched, src.served)
	}
}

// TestFetcherMemoHitReportsZeroTransfer pins the fetcher's contract
// with inference.RunFeedback: the first pull of a ref transfers, a
// repeat pull is served from the memo with transferred == 0, and the
// deduplicated byte count moves only once.
func TestFetcherMemoHitReportsZeroTransfer(t *testing.T) {
	m, err := NewMonitor(3, smallSummaryConfig())
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(9))
	if err := m.IngestBatch(bg.Batch(500)); err != nil {
		t.Fatal(err)
	}
	ss, _, err := m.CollectSummaries()
	if err != nil || len(ss) != 1 {
		t.Fatalf("summaries: %d, %v", len(ss), err)
	}
	centroid := -1
	for c, n := range ss[0].Counts {
		if n > 0 {
			centroid = c
			break
		}
	}
	if centroid < 0 {
		t.Fatal("no populated centroid")
	}

	ctrl, err := NewController(ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 500)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.RegisterSource(3, m)
	fet := newFetcher(ctrl, 0)
	ref := inference.CentroidRef{MonitorID: 3, Epoch: ss[0].Epoch, Centroid: centroid}

	hs1, transferred1, err := fet.FetchRaw(ref)
	if err != nil {
		t.Fatal(err)
	}
	if transferred1 != len(hs1) || transferred1 == 0 {
		t.Fatalf("cold fetch transferred %d of %d headers", transferred1, len(hs1))
	}
	hs2, transferred2, err := fet.FetchRaw(ref)
	if err != nil {
		t.Fatal(err)
	}
	if transferred2 != 0 {
		t.Fatalf("memo hit transferred %d, want 0", transferred2)
	}
	if len(hs2) != len(hs1) {
		t.Fatalf("memo hit returned %d headers, cold fetch %d", len(hs2), len(hs1))
	}
	if fet.bytes != transferred1 {
		t.Fatalf("deduplicated byte count %d, want %d", fet.bytes, transferred1)
	}
}

// adaptFeedbackConfigs returns per-attack configs that sit strictly
// inside adapt.DefaultLimits, so enabling the adapter clamps nothing
// and a Step=0 adapter is a pure no-op.
func adaptFeedbackConfigs(qs map[rules.AttackID]*rules.Question) map[rules.AttackID]inference.FeedbackConfig {
	fb := make(map[rules.AttackID]inference.FeedbackConfig, len(qs))
	for id := range qs {
		fb[id] = inference.FeedbackConfig{TauD1: 0.015, TauD2: 0.12, CountScale2: 0.55}
	}
	return fb
}

// runAdaptWorkload drives five identical epochs of seeded mixed traffic
// through a feedback pipeline and returns the alert trace, the final
// stats and the final feedback configs.
func runAdaptWorkload(t *testing.T, workers int, ac *adapt.Config) (string, Stats, map[rules.AttackID]inference.FeedbackConfig) {
	t.Helper()
	qs := testQuestions(t, 2500)
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller: ControllerConfig{
			Env:         testEnv(),
			Questions:   qs,
			Feedback:    adaptFeedbackConfigs(qs),
			UseFeedback: true,
			Workers:     workers,
			Adapt:       ac,
		},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(11))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 11, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 11})
	var trace string
	for round := 0; round < 5; round++ {
		for _, lp := range mix.Batch(2500) {
			if err := p.Ingest(lp.Header); err != nil {
				t.Fatal(err)
			}
		}
		alerts, err := p.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("round %d: %d alerts\n", round, len(alerts))
		for _, a := range alerts {
			trace += a.String() + "\n"
		}
	}
	return trace, p.Controller.Stats(), p.Controller.FeedbackConfigs()
}

// TestAdaptDisabledByteIdentical pins the opt-in contract: a nil Adapt
// config and a Step=0 adapter both leave the alert stream and the
// accounting byte-identical to the static-threshold engine.
func TestAdaptDisabledByteIdentical(t *testing.T) {
	offTrace, offStats, offFB := runAdaptWorkload(t, 1, nil)

	frozen := adapt.DefaultConfig(0)
	frozen.Step = 0
	zeroTrace, zeroStats, zeroFB := runAdaptWorkload(t, 1, &frozen)

	if offTrace != zeroTrace {
		t.Errorf("alert traces differ between adapt=nil and Step=0:\n--- off ---\n%s--- frozen ---\n%s",
			offTrace, zeroTrace)
	}
	if offStats != zeroStats {
		t.Errorf("stats differ: %+v vs %+v", offStats, zeroStats)
	}
	if !reflect.DeepEqual(offFB, zeroFB) {
		t.Errorf("feedback configs moved under Step=0: %+v vs %+v", offFB, zeroFB)
	}
}

// TestAdaptDeterministicAcrossWorkers extends the engine's determinism
// invariant to the adaptive path: the threshold trajectory feeds back
// into inference, so it too must be identical for every worker count.
func TestAdaptDeterministicAcrossWorkers(t *testing.T) {
	ac := adapt.DefaultConfig(64 << 10)
	ac.Seed = 17
	ac.WidenAfter = 2

	seqTrace, seqStats, seqFB := runAdaptWorkload(t, 1, &ac)
	parTrace, parStats, parFB := runAdaptWorkload(t, runtime.GOMAXPROCS(0), &ac)

	if seqTrace != parTrace {
		t.Errorf("adaptive alert traces differ between workers=1 and workers=%d:\n--- sequential ---\n%s--- parallel ---\n%s",
			runtime.GOMAXPROCS(0), seqTrace, parTrace)
	}
	if seqStats != parStats {
		t.Errorf("stats differ: %+v vs %+v", seqStats, parStats)
	}
	if !reflect.DeepEqual(seqFB, parFB) {
		t.Errorf("final feedback configs differ:\n%+v\nvs\n%+v", seqFB, parFB)
	}
	// The run must actually have adapted — otherwise this test degrades
	// into TestAdaptDisabledByteIdentical and proves nothing new.
	if !reflect.DeepEqual(seqFB, adaptFeedbackConfigs(testQuestions(t, 2500))) {
		return
	}
	t.Fatal("workload never moved the thresholds; pick a driving traffic mix")
}
