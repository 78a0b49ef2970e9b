package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/rules"
	"repro/internal/trafficgen"
)

// declared reads the metric and workload names BENCHMARK.json declares.
func declared(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(workloads)
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestWorkloadsTiny runs every workload untraced and traced: the
// attack workloads for a whole lap, so their detection gates run, the
// clean one for a few epochs. The correctness gate must pass —
// including, over the wire, equality with the in-process reference —
// and the emitted metric names must be exactly those BENCHMARK.json
// declares.
func TestWorkloadsTiny(t *testing.T) {
	workloads, endToEnd, perLayer := declared(t)
	if got := sortedKeys(specs); !slices.Equal(got, workloads) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, workloads)
	}
	for _, w := range workloads {
		epochs := 6
		if specs[w].attack != "" {
			epochs = specs[w].lap
		}
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 3, epochs: epochs, setups: 1, trace: traced, log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < epochs {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, declared %v", w, traced, got, want)
			}
			if traced && res.Metrics["summary.batches"].Value == 0 {
				t.Errorf("%s: no batches summarized, the reference comparison is vacuous", w)
			}
		}
	}
}

// drive runs epochs of workload w from seed over its own deployment
// (loopback for the wire workloads) and returns the runner.
func drive(t *testing.T, w string, seed int64, epochs int) *runner {
	t.Helper()
	s := specs[w]
	c, err := generate(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.close() })
	qs, err := buildQuestions(s)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeployment(s, qs, 2, s.wire, &traceState{})
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(s, c, d)
	r.startFeeders()
	_, err = r.runPhase(0, epochs, nil)
	r.stopFeeders()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSameSeedSameOutcome drives the feedback workload over loopback
// twice from one seed: summaries and alerts must repeat exactly, and
// the alerts must not be empty, or the comparison proves nothing.
func TestSameSeedSameOutcome(t *testing.T) {
	a, b := drive(t, "attack_feedback", 5, 8), drive(t, "attack_feedback", 5, 8)
	if !slices.Equal(a.shape, b.shape) {
		t.Error("summaries differ between two runs of one seed")
	}
	alerts := 0
	for e := range a.alerts {
		alerts += len(a.alerts[e])
		if !slices.Equal(a.alerts[e], b.alerts[e]) {
			t.Errorf("epoch %d: alerts %v then %v", e, a.alerts[e], b.alerts[e])
		}
	}
	if alerts == 0 {
		t.Error("no alerts in 8 epochs of the campaign workload")
	}
}

// TestLapGatesCatchMisses runs one lap of each attack workload: the
// detection gates must pass on it, and must fail once an expected
// attack's alerts, or the volumetric victim, are taken away.
func TestLapGatesCatchMisses(t *testing.T) {
	for _, w := range []string{"attack_feedback", "overload_rules10k"} {
		r := drive(t, w, 3, specs[w].lap)
		if len(r.gateFailures) != 0 || r.checkLap(0) {
			t.Fatalf("%s: gate failed on a healthy lap: %v", w, r.gateFailures)
		}
		targets := trafficgen.CampaignStages
		if w != "attack_feedback" {
			targets = []rules.AttackID{r.s.attack}
		}
		alerts := r.alerts
		for _, id := range targets {
			r.alerts = make([][]rules.AttackID, len(alerts))
			for e, ids := range alerts {
				r.alerts[e] = slices.DeleteFunc(slices.Clone(ids), func(a rules.AttackID) bool { return a == id })
			}
			r.gateFailures = nil
			if !r.checkLap(0) || !strings.Contains(strings.Join(r.gateFailures, "\n"), string(id)+" raised no alert") {
				t.Errorf("%s: gate passed without %s alerts: %v", w, id, r.gateFailures)
			}
		}
		r.alerts = alerts
		if r.s.sketch.Enabled {
			r.victim = make([]bool, len(r.victim))
			r.gateFailures = nil
			if !r.checkLap(0) || !strings.Contains(strings.Join(r.gateFailures, "\n"), "did not name the") {
				t.Errorf("%s: gate passed without the volumetric victim: %v", w, r.gateFailures)
			}
		}
	}
}

// TestCorpusKeepsLengths: each record is a whole datagram, so the
// decoded header keeps the IP total length trafficgen drew.
func TestCorpusKeepsLengths(t *testing.T) {
	zeros := make([]byte, 1<<16)
	for _, h := range []packet.Header{
		{Protocol: packet.ProtoTCP, TotalLength: 1000, SrcPort: 1, DstPort: 2},
		{Protocol: packet.ProtoUDP, TotalLength: 1028, SrcPort: 3, DstPort: 53},
		{Protocol: packet.ProtoUDP, TotalLength: 20},
	} {
		data, err := datagram(&h, zeros)
		if err != nil {
			t.Fatal(err)
		}
		var got packet.Header
		if _, _, err := got.UnmarshalIPv4(data); err != nil {
			t.Fatal(err)
		}
		if want := datagramLen(&h); int(got.TotalLength) != want || len(data) != want {
			t.Errorf("total length %d, %d bytes, want %d", got.TotalLength, len(data), want)
		}
	}
	c, err := generate(specs["clean_wire"], 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	rd, err := pcap.NewReader(bytes.NewReader(c.pcaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[uint16]bool{}
	for {
		p, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var h packet.Header
		if _, _, err := h.UnmarshalIPv4(p.Data); err != nil {
			t.Fatal(err)
		}
		lengths[h.TotalLength] = true
	}
	if len(lengths) < 100 {
		t.Errorf("%d distinct IP total lengths in the corpus, want the generated spread", len(lengths))
	}
}

// TestSelfTimes: a span's self time excludes the union of its
// children, so overlapping concurrent children count once.
func TestSelfTimes(t *testing.T) {
	rows := selfTimes([]span{
		{ID: 1, Name: "process", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fetch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "fetch", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "fetch", Start: 90, End: 120},
	})
	got := map[string]layerRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if p := got["process"]; p.Self != 100-40-10 || p.Total != 100 {
		t.Errorf("process self %d total %d, want 50 and 100", p.Self, p.Total)
	}
	if f := got["fetch"]; f.Count != 3 || f.Self != 80 {
		t.Errorf("fetch count %d self %d, want 3 and 80", f.Count, f.Self)
	}
}
