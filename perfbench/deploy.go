package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/wire"
)

// traceState is what the instrumentation on other goroutines (the
// monitor-side conn wrappers, the raw-source wrappers) needs to attach
// spans to the current epoch. rec is nil while untraced.
type traceState struct {
	rec     atomic.Pointer[recorder]
	epoch   atomic.Int64
	poll    atomic.Int64 // id of the epoch's poll span
	process atomic.Int64 // id of the epoch's ProcessEpoch span
}

// frameParser follows one direction of a wire-protocol byte stream
// (4-byte big-endian length, 1-byte type, payload) and reports each
// completed frame. Only the payloads of the small frames the benchmark
// reads are kept.
type frameParser struct {
	hdr    [5]byte
	hn     int
	left   int
	typ    wire.MsgType
	keep   bool
	buf    []byte
	frames atomic.Int64
}

func (p *frameParser) feed(b []byte, onFrame func(wire.MsgType, []byte)) {
	for len(b) > 0 {
		if p.hn < len(p.hdr) {
			n := copy(p.hdr[p.hn:], b)
			p.hn += n
			b = b[n:]
			if p.hn < len(p.hdr) {
				return
			}
			p.left = int(binary.BigEndian.Uint32(p.hdr[:4]))
			p.typ = wire.MsgType(p.hdr[4])
			p.keep = p.typ == wire.MsgSummaryRequest || p.typ == wire.MsgSummaryDecline
			p.buf = p.buf[:0]
		}
		n := min(p.left, len(b))
		if p.keep {
			p.buf = append(p.buf, b[:n]...)
		}
		p.left -= n
		b = b[n:]
		if p.left == 0 {
			p.frames.Add(1)
			onFrame(p.typ, p.buf)
			p.hn = 0
		}
	}
}

// monConn wraps the monitor side of one loopback connection (the
// accept path). It counts the bytes and frames crossing the socket in
// each direction, times each summary poll from the read that completed
// the request to the first reply write — the monitor's collect plus
// encode — and reads the pending count from the end-of-poll decline
// frame, the monitor's own report of packets buffered but not yet
// summarized.
type monConn struct {
	net.Conn
	tr *traceState

	up, down   atomic.Int64 // bytes monitor→controller, controller→monitor
	collectNs  atomic.Int64
	collects   atomic.Int64
	pending    atomic.Int64
	rx, tx     frameParser
	reqAt      int64 // recorder-free monotonic stamp of the completed request
	reqEpoch   int64
	reqPending bool
}

func (c *monConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.down.Add(int64(n))
		c.rx.feed(b[:n], func(t wire.MsgType, payload []byte) {
			if t != wire.MsgSummaryRequest {
				return
			}
			epoch, err := wire.DecodeSummaryRequest(payload)
			if err != nil {
				return
			}
			c.reqAt, c.reqEpoch, c.reqPending = monoNow(), int64(epoch), true
		})
	}
	return n, err
}

func (c *monConn) Write(b []byte) (int, error) {
	if c.reqPending {
		c.reqPending = false
		now := monoNow()
		c.collectNs.Add(now - c.reqAt)
		c.collects.Add(1)
		if rec := c.tr.rec.Load(); rec != nil {
			start := rec.now() - (now - c.reqAt)
			rec.record(rec.id(), c.tr.poll.Load(), "collect", c.reqEpoch, start)
		}
	}
	c.tx.feed(b, func(t wire.MsgType, payload []byte) {
		if t != wire.MsgSummaryDecline {
			return
		}
		if _, _, pending, err := wire.DecodeSummaryDecline(payload); err == nil {
			c.pending.Store(int64(pending))
		}
	})
	n, err := c.Conn.Write(b)
	c.up.Add(int64(n))
	return n, err
}

// monoBase anchors monoNow, a cheap monotonic nanosecond clock.
var monoBase = time.Now()

func monoNow() int64 { return int64(time.Since(monoBase)) }

// rawSource wraps the RawSource the controller's feedback loop pulls
// raw headers through, counting calls and headers and, when traced,
// recording one span per fetch under the epoch's ProcessEpoch span.
type rawSource struct {
	src   core.RawSource
	tr    *traceState
	calls atomic.Int64
	pkts  atomic.Int64
	ns    atomic.Int64
}

func (s *rawSource) RawPackets(epoch uint64, centroid int) []packet.Header {
	rec := s.tr.rec.Load()
	var start, t0 int64
	if rec != nil {
		start, t0 = rec.now(), monoNow()
	}
	hs := s.src.RawPackets(epoch, centroid)
	s.calls.Add(1)
	s.pkts.Add(int64(len(hs)))
	if rec != nil {
		s.ns.Add(monoNow() - t0)
		rec.record(rec.id(), s.tr.process.Load(), "fetch", s.tr.epoch.Load(), start)
	}
	return hs
}

// deployment is one built Jaal deployment: monitors, a controller and,
// for wire workloads, the loopback connections between them.
type deployment struct {
	mons  []*core.Monitor
	pipe  *core.Pipeline // in-process workloads: the flow-assigning ingest path
	ctrl  *core.Controller
	raws  []*rawSource
	tr    *traceState
	qs    questionSet
	wired bool

	// Wire only.
	lns     []net.Listener
	conns   []*monConn
	remotes []*core.RemoteMonitor
	poller  *core.Poller
	serveWG sync.WaitGroup
	serveMu sync.Mutex
	serveEr []error
}

// newDeployment builds the workload's monitors and controller. wired
// connects them over loopback TCP; otherwise the controller reaches the
// monitors directly. workers bounds every pool the program uses
// (controller question fan-out, pipeline monitor fan-out).
func newDeployment(s spec, qs questionSet, workers int, wired bool, tr *traceState) (*deployment, error) {
	ccfg := core.ControllerConfig{
		Env: env(), Questions: qs.questions, Feedback: qs.feedback, UseFeedback: qs.feedback != nil,
		Workers: workers,
	}
	d := &deployment{tr: tr, qs: qs, wired: wired}
	if s.wire {
		ctrl, err := core.NewController(ccfg)
		if err != nil {
			return nil, err
		}
		d.ctrl = ctrl
		for i := 0; i < numMonitors; i++ {
			cfg := s.summary
			cfg.Seed = int64(i) + 1 // as jaal-monitor seeds monitor i
			m, err := core.NewMonitorSketch(i, cfg, s.sketch)
			if err != nil {
				return nil, err
			}
			d.mons = append(d.mons, m)
		}
	} else {
		cfg := s.summary
		cfg.Seed = 1 // the pipeline seeds monitor i with Seed+i
		pipe, err := core.NewPipeline(core.PipelineConfig{
			NumMonitors: numMonitors, Summary: cfg, Sketch: s.sketch, Workers: workers, Controller: ccfg,
		})
		if err != nil {
			return nil, err
		}
		d.pipe, d.mons, d.ctrl = pipe, pipe.Monitors, pipe.Controller
	}
	if !wired {
		for _, m := range d.mons {
			d.register(m.ID(), m)
		}
		return d, nil
	}
	if err := d.dial(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) register(id int, src core.RawSource) {
	rs := &rawSource{src: src, tr: d.tr}
	d.raws = append(d.raws, rs)
	d.ctrl.RegisterSource(id, rs)
}

// dial serves every monitor on its own loopback listener and connects
// the controller to it, as jaal-monitor and jaal-controller do.
func (d *deployment) dial() error {
	retry := core.RetryConfig{Timeout: 10 * time.Second, Attempts: 1}
	for _, m := range d.mons {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		d.lns = append(d.lns, ln)
		accepted := make(chan *monConn, 1)
		srv := &core.MonitorServer{Monitor: m, WriteTimeout: 10 * time.Second}
		d.serveWG.Add(1)
		go func() {
			defer d.serveWG.Done()
			conn, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			mc := &monConn{Conn: conn, tr: d.tr}
			accepted <- mc
			err = srv.Serve(mc)
			conn.Close()
			if err != nil && !errors.Is(err, net.ErrClosed) {
				d.serveMu.Lock()
				d.serveEr = append(d.serveEr, err)
				d.serveMu.Unlock()
			}
		}()
		addr := ln.Addr().String()
		rm, err := core.DialMonitorRetry(func() (net.Conn, error) { return net.Dial("tcp", addr) }, retry)
		if err != nil {
			return err
		}
		d.remotes = append(d.remotes, rm)
		mc, ok := <-accepted
		if !ok {
			return fmt.Errorf("monitor %d: accept failed", m.ID())
		}
		d.conns = append(d.conns, mc)
		d.register(rm.ID(), rm)
	}
	d.poller = &core.Poller{Remotes: d.remotes, Workers: len(d.remotes)}
	return nil
}

// close tears the deployment down and waits for every serving
// goroutine to end. It returns the first unexpected serve error.
func (d *deployment) close() error {
	for _, rm := range d.remotes {
		rm.Close()
	}
	for _, ln := range d.lns {
		ln.Close()
	}
	d.serveWG.Wait()
	d.serveMu.Lock()
	defer d.serveMu.Unlock()
	if len(d.serveEr) > 0 {
		return d.serveEr[0]
	}
	return nil
}

// tickOut is one controller tick's outcome.
type tickOut struct {
	summaries []*summary.Summary
	digests   []*sketch.Digest
	pending   []int // per monitor, after the collect
	alerts    []*inference.Alert
	victim    bool // the volumetric report named the victim as a destination
	degraded  bool
	err       error
	// tick is the tick's wall time, tickCPU the CPU time the whole
	// process (monitor servers included) used meanwhile.
	tick, tickCPU time.Duration
	// Layer timings, recorded on every tick (a handful of clock reads).
	poll, process time.Duration
	collectNs     int64 // in-process: summed CollectSummaries time
}

// tick runs one controller epoch as jaal-controller's loop does: poll
// (over the wire, or a direct collect in-process), merge the sketch
// digests, then ProcessEpoch. The tick is timed from the start of the
// poll until ProcessEpoch returns.
func (d *deployment) tick(epoch uint64, parent int64) tickOut {
	rec := d.tr.rec.Load()
	var tickID, pollID, procID, tickStart int64
	if rec != nil {
		tickID, pollID, procID = rec.id(), rec.id(), rec.id()
		d.tr.epoch.Store(int64(epoch))
		d.tr.poll.Store(pollID)
		d.tr.process.Store(procID)
		tickStart = rec.now()
	}
	var out tickOut
	cpu0 := processCPU()
	start := time.Now()
	if d.wired {
		res := d.poller.Poll(epoch)
		out.summaries, out.digests, out.degraded = res.Summaries, res.Digests, res.Degraded
		for _, dc := range res.Declines {
			if dc.Unreachable() {
				out.err = fmt.Errorf("monitor %d unreachable: %w", dc.MonitorID, dc.Err)
			}
		}
		for _, c := range d.conns {
			out.pending = append(out.pending, int(c.pending.Load()))
		}
	} else {
		d.collectLocal(epoch, &out, rec, pollID)
	}
	out.poll = time.Since(start)
	if rec != nil {
		rec.add(span{ID: pollID, Parent: tickID, Name: "poll", Epoch: int64(epoch), Start: tickStart, End: tickStart + int64(out.poll)})
	}
	var obsStart int64
	if rec != nil {
		obsStart = rec.now()
	}
	if rep := d.ctrl.ObserveDigests(epoch, out.digests); rep != nil {
		for _, v := range rep.Verdicts {
			if v.Dimension == "dst" && v.Addr == victim {
				out.victim = true
			}
		}
	}
	var procStart int64
	if rec != nil {
		procStart = rec.now()
		rec.record(rec.id(), tickID, "observe_digests", int64(epoch), obsStart)
	}
	p0 := time.Now()
	alerts, err := d.ctrl.ProcessEpoch(out.summaries)
	now := time.Now()
	out.process, out.tick = now.Sub(p0), now.Sub(start)
	out.tickCPU = processCPU() - cpu0
	if rec != nil {
		rec.record(procID, tickID, "process", int64(epoch), procStart)
		rec.record(tickID, parent, "tick", int64(epoch), tickStart)
	}
	if err != nil && out.err == nil {
		out.err = err
	}
	out.alerts = alerts
	if !d.wired {
		for _, m := range d.mons {
			m.AdvanceEpoch()
		}
	}
	return out
}

// collectLocal is the in-process poll: every monitor's CollectSummaries
// and sketch digest, fanned out over the worker pool and joined in
// monitor order, as Pipeline.RunEpoch does.
func (d *deployment) collectLocal(epoch uint64, out *tickOut, rec *recorder, pollID int64) {
	n := len(d.mons)
	ss := make([][]*summary.Summary, n)
	dg := make([]*sketch.Digest, n)
	out.pending = make([]int, n)
	errs := make([]error, n)
	ns := make([]int64, n)
	par.For(n, n, func(i int) {
		m := d.mons[i]
		var start int64
		if rec != nil {
			start = rec.now()
		}
		t0 := monoNow()
		ss[i], out.pending[i], errs[i] = m.CollectSummaries()
		dg[i] = m.SketchDigest(epoch)
		ns[i] = monoNow() - t0
		if rec != nil {
			rec.record(rec.id(), pollID, "collect", int64(epoch), start)
		}
	})
	for i := range d.mons {
		if errs[i] != nil && !errors.Is(errs[i], summary.ErrBatchTooSmall) {
			out.err = errs[i]
		}
		out.summaries = append(out.summaries, ss[i]...)
		if dg[i] != nil {
			out.digests = append(out.digests, dg[i])
		}
		out.collectNs += ns[i]
	}
}
