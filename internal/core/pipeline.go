package core

import (
	"fmt"
	"io"

	"repro/internal/flowassign"
	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/summary"
)

// Pipeline is the in-process deployment of Jaal used by experiments and
// examples: M monitors, one controller, and a flow-assignment module
// routing each flow to exactly one monitor in its monitor group.
type Pipeline struct {
	Monitors   []*Monitor
	Controller *Controller
	Assigner   *flowassign.Assigner

	// driver runs RunEpoch over the monitors.
	driver *Driver
	// flowToMonitor caches placements so subsequent packets of a flow
	// go to the same monitor.
	flowToMonitor map[packet.FlowKey]int
	// monitorIndex maps monitor IDs to slice indices.
	monitorIndex map[int]int
}

// PipelineConfig assembles a pipeline.
type PipelineConfig struct {
	// NumMonitors is M.
	NumMonitors int
	// Summary is each monitor's summarization config.
	Summary summary.Config
	// Sketch arms the per-monitor sketch pass (heavy-hitter shedding +
	// volumetric digests). The zero value keeps it off, in which case
	// the pipeline is byte-identical to a sketchless build.
	Sketch sketch.Config
	// Controller configures the inference engine.
	Controller ControllerConfig
	// Groups optionally pre-defines flow groups. When nil, a single
	// group containing every monitor is used (all flows can be seen by
	// any monitor), which suits single-site experiments.
	Groups *flowassign.GroupTable
	// Workers bounds how many monitors RunEpoch polls concurrently;
	// zero selects GOMAXPROCS, 1 forces the sequential poll. Summaries
	// are joined in monitor order, so every worker count yields
	// identical epochs for the same seed and traffic.
	Workers int
	// EpochLog, when non-nil, receives the structured JSON-lines epoch
	// log: one record per epoch per monitor plus one for the
	// controller, carrying stage timings and queue depths. Logging is
	// an output-only side channel — alerts and stats are identical
	// with or without it.
	EpochLog io.Writer
}

// NewPipeline builds and wires the system.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.NumMonitors < 1 {
		return nil, fmt.Errorf("core: need at least one monitor")
	}
	ctrl, err := NewController(cfg.Controller)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		Controller:    ctrl,
		flowToMonitor: make(map[packet.FlowKey]int),
		monitorIndex:  make(map[int]int),
	}
	var allIDs []flowassign.MonitorID
	sources := make([]Source, cfg.NumMonitors)
	for i := 0; i < cfg.NumMonitors; i++ {
		mcfg := cfg.Summary
		mcfg.Seed = cfg.Summary.Seed + int64(i) // decorrelate k-means seeds
		m, err := NewMonitorSketch(i, mcfg, cfg.Sketch)
		if err != nil {
			return nil, err
		}
		p.Monitors = append(p.Monitors, m)
		p.monitorIndex[i] = i
		sources[i] = m
		allIDs = append(allIDs, flowassign.MonitorID(i))
	}
	p.driver = NewDriver(ctrl, sources, cfg.Workers, obs.NewEpochLogger(cfg.EpochLog))
	groups := cfg.Groups
	if groups == nil {
		groups = flowassign.NewGroupTable()
		if err := groups.Define("all", allIDs); err != nil {
			return nil, err
		}
	}
	p.Assigner = flowassign.NewAssigner(flowassign.NewGreedy(), groups)
	return p, nil
}

// groupOf maps a packet to its flow group. The default single-group
// deployment uses "all"; topology-driven deployments override by
// pre-defining groups keyed on prefix pairs.
func (p *Pipeline) groupOf(h *packet.Header) flowassign.GroupKey {
	if _, ok := p.Assigner.Table.MonitorGroup("all"); ok {
		return "all"
	}
	g := h.PrefixGroup()
	return flowassign.GroupKey(fmt.Sprintf("%d>%d", g.SrcPrefix, g.DstPrefix)) //jaal:alloc-ok runs once per new flow, not per packet; the flow table memoizes the assignment
}

// Ingest routes one packet to its flow's monitor, assigning new flows
// greedily (§6).
func (p *Pipeline) Ingest(h packet.Header) error {
	key := h.Flow()
	idx, ok := p.flowToMonitor[key]
	if !ok {
		mid, err := p.Assigner.Assign(flowassign.FlowID(key.FastHash()), p.groupOf(&h), 1)
		if err != nil {
			return err
		}
		idx = p.monitorIndex[int(mid)]
		p.flowToMonitor[key] = idx
	}
	return p.Monitors[idx].Ingest(h)
}

// IngestBatch routes many packets.
func (p *Pipeline) IngestBatch(hs []packet.Header) error {
	for _, h := range hs {
		if err := p.Ingest(h); err != nil {
			return err
		}
	}
	return nil
}

// RunEpoch runs one controller tick (§7) through the epoch driver and
// returns the raised alerts. The monitor polls fan out across
// PipelineConfig.Workers and join in monitor order, so every worker
// count yields the same alerts. A failed poll costs only that monitor's
// summaries: the epoch completes, and RunEpoch returns its alerts with
// the first failed poll's error (unless inference itself failed).
func (p *Pipeline) RunEpoch() ([]*inference.Alert, error) {
	res, err := p.driver.RunEpoch()
	for _, d := range res.Declines {
		if d.Unreachable() && err == nil {
			err = fmt.Errorf("core: monitor %d: %w", d.MonitorID, d.Err)
		}
	}
	return res.Alerts, err
}
