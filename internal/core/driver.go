package core

import (
	"time"

	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Source is one monitor as the epoch driver sees it. Poll is the
// monitor's whole per-epoch contract — collect the queued summaries,
// snapshot the sketch digest, advance the monitor's epoch — and
// RawPackets/FinerSummary serve the feedback loop afterwards. *Monitor
// implements it in-process; *RemoteMonitor over the wire, where
// MonitorServer answers each poll with Monitor.Poll.
type Source interface {
	ID() int
	Poll(epoch uint64) (ss []*summary.Summary, pending int, digest *sketch.Digest, err error)
	RawPackets(epoch uint64, centroid int) []packet.Header
	FinerSummary(epoch uint64, k int) (*summary.Summary, error)
}

// MonitorDecline records a monitor that contributed no summaries to an
// epoch: a protocol decline (buffer below n_min, §5.1) or a failed poll,
// such as a transport failure that exhausted the retry budget. The
// epoch proceeds either way.
type MonitorDecline struct {
	// MonitorID identifies the monitor.
	MonitorID int
	// Epoch is the poll's epoch number.
	Epoch uint64
	// Pending is the monitor's reported buffered-packet count.
	Pending int
	// Err is the failed poll's error; nil for a protocol decline.
	Err error
}

// Unreachable reports whether the decline stands for a failed poll
// rather than a protocol decline.
func (d MonitorDecline) Unreachable() bool { return d.Err != nil }

// Poller is the epoch driver's poll step alone, over remote monitors
// polled under their handles' retry policies.
type Poller struct {
	// Remotes are the monitor handles, in join order.
	Remotes []*RemoteMonitor
	// Workers bounds the poll fan-out (0 = GOMAXPROCS).
	Workers int
}

// PollResult is one epoch's poll outcome.
type PollResult struct {
	// Summaries holds every summary that arrived, in monitor order.
	Summaries []*summary.Summary
	// Digests holds the sketch digests of monitors running the sketch
	// pass, joined in monitor order (absent monitors contribute none).
	Digests []*sketch.Digest
	// Declines records the monitors that contributed no summaries,
	// protocol declines and failed polls both.
	Declines []MonitorDecline
	// Degraded reports whether at least one poll failed.
	Degraded bool

	// polls holds each source's poll, in source order.
	polls []sourcePoll
}

// sourcePoll is what one source's Poll returned, and how long it took.
type sourcePoll struct {
	id, pending int
	ss          []*summary.Summary
	digest      *sketch.Digest
	err         error
	dur         time.Duration
}

// Poll runs one epoch's summary collection. It never fails: an
// unreachable monitor degrades the epoch (jaal_epoch_degraded_total).
func (p *Poller) Poll(epoch uint64) PollResult {
	return pollSources(p.Remotes, p.Workers, epoch)
}

// pollSources polls every source, at most workers at a time, and joins
// the results in source order, so every worker count yields the same
// epoch. A source that contributed no summaries becomes a
// MonitorDecline. Each poll is timed for the epoch log even with
// metrics and tracing off. An in-process *Monitor's poll is the
// controller-side collect stage, and its staged spans join the epoch
// directly; any other poll is the ship stage, the round trip as seen
// from here, and RemoteMonitor.Poll adds the spans shipped with it.
func pollSources[S Source](srcs []S, workers int, epoch uint64) PollResult {
	res := PollResult{polls: make([]sourcePoll, len(srcs))}
	par.For(len(srcs), workers, func(i int) {
		src, sp := srcs[i], &res.polls[i]
		_, local := any(src).(*Monitor)
		stage := trace.StageShip
		if local {
			stage = trace.StageCollect
		}
		span := trace.StartSpanWhen(true, hCollectSeconds, stage, src.ID(), epoch)
		sp.ss, sp.pending, sp.digest, sp.err = src.Poll(epoch)
		sp.id, sp.dur = src.ID(), span.End()
		if local {
			trace.AdoptMonitorSpans(epoch, sp.id)
		}
	})
	for _, sp := range res.polls {
		if sp.err != nil || len(sp.ss) == 0 {
			res.Declines = append(res.Declines, MonitorDecline{MonitorID: sp.id, Epoch: epoch, Pending: sp.pending, Err: sp.err})
			res.Degraded = res.Degraded || sp.err != nil
		} else {
			res.Summaries = append(res.Summaries, sp.ss...)
		}
		if sp.digest != nil {
			res.Digests = append(res.Digests, sp.digest)
		}
	}
	if res.Degraded {
		cEpochDegraded.Inc()
	}
	return res
}

// Driver runs Jaal's controller tick (§5, §7), the one epoch sequence
// of every deployment: poll every source, merge the sketch digests, run
// inference, seal the epoch's trace, write the epoch log.
type Driver struct {
	ctrl    *Controller
	sources []Source
	workers int
	log     *obs.EpochLogger
}

// NewDriver registers every source as the controller's raw-packet
// source. Sources are polled at most workers at a time (0 = GOMAXPROCS);
// log, when non-nil, gets one record per source and one for the
// controller each epoch.
func NewDriver(ctrl *Controller, sources []Source, workers int, log *obs.EpochLogger) *Driver {
	for _, src := range sources {
		ctrl.RegisterSource(src.ID(), src)
	}
	return &Driver{ctrl: ctrl, sources: sources, workers: workers, log: log}
}

// EpochResult is one driven epoch's outcome.
type EpochResult struct {
	PollResult
	// Epoch is the controller epoch the tick ran as.
	Epoch uint64
	// Alerts are the alerts raised, in attack-ID order.
	Alerts []*inference.Alert
	// Volumetric is the merged digest report (nil without digests).
	Volumetric *VolumetricReport
}

// RunEpoch runs one controller tick. A failed poll does not fail the
// epoch: it becomes a MonitorDecline with Err set, and inference runs
// on what arrived. The error is ProcessEpoch's; on every path the
// epoch's trace is sealed and the epoch log written.
func (d *Driver) RunEpoch() (EpochResult, error) {
	epoch := d.ctrl.Epoch()
	epochSpan := trace.StartSpan(hRunEpochSeconds, trace.StageEpoch, trace.ControllerProc, epoch)
	pollStart := time.Now() //jaalvet:ignore detrand — stage timing feeds only the epoch log; alerts and stats never depend on it
	res := EpochResult{Epoch: epoch, PollResult: pollSources(d.sources, d.workers, epoch)}
	res.Volumetric = d.ctrl.ObserveDigests(epoch, res.Digests)
	inferStart := time.Now() //jaalvet:ignore detrand — stage timing feeds only the epoch log; alerts and stats never depend on it
	alerts, err := d.ctrl.ProcessEpoch(res.Summaries)
	res.Alerts = alerts
	if d.log != nil { // guarded for obshot, as in logPoll
		for _, sp := range res.polls {
			logPoll(d.log, epoch, sp.id, len(sp.ss), sp.pending, sp.dur)
		}
		d.log.Log("controller", epoch,
			obs.KV{K: "summaries", V: len(res.Summaries)},
			obs.KV{K: "declines", V: len(res.Declines)},
			obs.KV{K: "degraded", V: res.Degraded},
			obs.KV{K: "alerts", V: len(alerts)},
			obs.KV{K: "poll_ms", V: inferStart.Sub(pollStart)},
			obs.KV{K: "infer_ms", V: time.Since(inferStart)}, //jaalvet:ignore detrand — inference timing is epoch-log-only output, never an input
			obs.KV{K: "overhead_fraction", V: d.ctrl.Stats().OverheadFraction()})
	}
	epochSpan.End()
	trace.FinishEpoch(epoch, len(alerts))
	return res, err
}

// logPoll writes one monitor poll's epoch-log record: the controller's
// view in the driver, the monitor's own in MonitorServer.
func logPoll(l *obs.EpochLogger, epoch uint64, id, summaries, pending int, collect time.Duration) {
	// Guarded (obshot): the KV literals and boxed values would allocate
	// every poll even with logging disabled.
	if l != nil {
		l.Log("monitor", epoch,
			obs.KV{K: "id", V: id},
			obs.KV{K: "summaries", V: summaries},
			obs.KV{K: "pending", V: pending},
			obs.KV{K: "collect_ms", V: collect})
	}
}
