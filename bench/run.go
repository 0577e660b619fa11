package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"threelc/internal/compress"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
)

// runOptions is one invocation of one workload.
type runOptions struct {
	wl      *workload
	seed    uint64
	seconds float64
	trace   bool
	// steps, when positive, fixes the timed step count instead of sizing
	// it from seconds: the smoke scale the tests run at.
	steps    int
	traceOut string
}

// check is one verification of the program's output.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one invocation measured.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks"`
	// Unresolved lists what the host did to this run that makes its
	// timings unfit for comparison; the program under test is not at fault.
	Unresolved []string `json:"unresolved,omitempty"`
	// Samples states how many step samples the timings rest on, and the
	// inputs of derived numbers.
	Samples map[string]float64 `json:"samples"`
	Host    hostInfo           `json:"host"`
}

// runner accumulates one invocation's passes.
type runner struct {
	opts    runOptions
	warm    int
	quality int
	res     result
	vals    map[string]float64
}

// runWorkload runs one workload once: the timed measurement, or with
// opts.trace the traced run that yields the per-layer metrics. Errors
// from the program under test are counted as failures in the result; the
// returned error is for the benchmark's own faults.
func runWorkload(opts runOptions) (*result, error) {
	// One processor for every emulated node (see lockstep): the host is a
	// shared machine on which a second CPU is there at one moment and gone
	// the next, and a step that needs two at once takes anything between
	// once and twice its time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &runner{
		opts:    opts,
		warm:    opts.wl.warmup(),
		quality: opts.wl.quality,
		vals:    make(map[string]float64),
		res: result{
			Workload: opts.wl.Name,
			Seed:     opts.seed,
			Trace:    opts.trace,
			Samples:  make(map[string]float64),
			Host:     host(),
		},
	}
	if opts.steps > 0 {
		r.quality = opts.steps
		r.warm = 2
	}
	defs := endToEnd
	var err error
	if opts.trace {
		defs = perLayer
		err = r.traced()
	} else {
		err = r.timed()
	}
	if err != nil {
		// A pass failed: its unfinished steps are already counted, and no
		// metric can be trusted.
		r.check("run completed", false, err.Error())
		r.res.Metrics = map[string]metricValue{}
	} else {
		var missing []string
		r.res.Metrics, missing = collect(defs, r.vals)
		if len(missing) > 0 {
			return nil, fmt.Errorf("metrics not measured: %v", missing)
		}
		for name, m := range r.res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.check("metric "+name+" is finite", false, fmt.Sprint(m.Value))
			}
		}
	}
	r.res.Correct = r.res.Failed == 0
	return &r.res, nil
}

func (r *runner) check(name string, ok bool, detail string) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
	} else {
		detail = ""
	}
	r.res.Checks = append(r.res.Checks, check{Name: name, OK: ok, Detail: detail})
}

// pass runs one pass on the inputs seed generates and counts its steps:
// every planned step is an attempt, every step worker 0 did not finish a
// failure.
func (r *runner) pass(seed uint64, cfg passConfig) (*pass, error) {
	cfg.wl, cfg.seed, cfg.warm = r.opts.wl, seed, r.warm
	cfg.horizon = r.warm + r.quality
	p, err := runPass(cfg)
	total := cfg.warm + cfg.steps
	r.res.Attempted += total
	if err != nil {
		done := 0
		for _, rec := range p.recs[0] {
			if rec.t2 != 0 {
				done++
			}
		}
		r.res.Failed += total - done
		return nil, err
	}
	r.check("worker replicas are bit-identical", p.replicaHash[0] == p.replicaHash[1], "replica hashes differ")
	return p, nil
}

// window is the timed window of a pass as worker 0 saw it: plain wall and
// CPU time, the reference operations taken out of both. The host is a shared
// virtual machine; what the hypervisor took from it during the window is
// reported beside the times, not taken out of them.
type window struct {
	step, exchange []float64 // per timed step, milliseconds
	ref            []float64 // the reference operation after each, milliseconds
	wallSec        float64
	cpuSec         float64
	linkSec        float64 // how long the shaped link was busy
	stolen         float64 // share of the window's CPU time that was stolen
}

func (p *pass) window() window {
	w := window{
		wallSec: float64(p.end.wall-p.open.wall) / 1e9,
		cpuSec:  (p.end.cpu - p.open.cpu).Seconds(),
		linkSec: (p.end.link - p.open.link).Seconds(),
		stolen:  stolenShare(p.open.host, p.end.host),
	}
	for _, rec := range p.recs[0][p.cfg.warm:] {
		w.step = append(w.step, ms(rec.t2-rec.t0))
		w.exchange = append(w.exchange, ms(rec.t2-rec.x0))
		w.ref = append(w.ref, ms(rec.ref))
		// The reference operation never waits, so its wall time is CPU time.
		w.wallSec -= float64(rec.ref) / 1e9
		w.cpuSec -= float64(rec.ref) / 1e9
	}
	return w
}

// timings are a window's step timings in milliseconds as the clocks read
// them, which move with the host's speed, and the exchange in reference
// operations, which hardly does.
type timings struct {
	stepMs, exchangeMs, cpuMs, stepsPerSec, refMs, linkMs float64
	exchangeRefops                                        float64
}

func (w window) timings() timings {
	n := float64(len(w.step))
	t := timings{
		stepMs:      median(w.step),
		exchangeMs:  median(w.exchange),
		cpuMs:       1e3 * w.cpuSec / n,
		stepsPerSec: n / w.wallSec,
		refMs:       median(w.ref),
		linkMs:      1e3 * w.linkSec / n,
	}
	// What a shaped link's rate imposes on an exchange does not slow with
	// the host and is bytes over rate, which wire_bytes_per_step gates; the
	// rest is work, and is counted in reference operations.
	t.exchangeRefops = (t.exchangeMs - t.linkMs) / t.refMs
	return t
}

// setupSec is the time from the pass's start to the end of its warm-up.
func (p *pass) setupSec() float64 { return float64(p.open.wall) / 1e9 }

// Past these a run's timings say more about the host than about the
// program, and the run is reported as unresolved. The shaper's limit is not
// the 2 % its arithmetic holds on an exact clock (shaper_test.go): a burst
// on wan-3lc is one worker's 44 kB, 35 ms of wire, and ends with one timer
// wake-up that an otherwise idle Go process gets up to a millisecond late,
// which alone is 2 to 3 %. Stalls come on top of that.
const (
	maxStolenShare   = 0.05
	maxShaperRateErr = 0.05
)

// hostChecks flags pass p, whose timed window is win, as unresolved if the
// hypervisor stole too much of its CPU time or stalls kept the shaped link
// under its rate.
func (r *runner) hostChecks(what string, p *pass, win window) {
	if win.stolen > maxStolenShare {
		r.res.Unresolved = append(r.res.Unresolved,
			fmt.Sprintf("%s: the hypervisor stole %.1f%% of the CPU time (limit %.0f%%)", what, 100*win.stolen, 100*maxStolenShare))
	}
	if p.shaper != nil {
		if e := p.shaper.rateErr(); e > maxShaperRateErr {
			r.res.Unresolved = append(r.res.Unresolved,
				fmt.Sprintf("%s: the shaped link ran %.1f%% off its rate (limit %.0f%%): wake-ups stalled", what, 100*e, 100*maxShaperRateErr))
		}
	}
}

// calibrate runs one warm-up-only pass and returns an estimate of what one
// step costs in wall time, batch assembly and tails included, taken over
// the second half of the warm-up.
func (r *runner) calibrate() (stepSec float64, err error) {
	p, err := r.pass(r.opts.seed, passConfig{})
	if err != nil {
		return 0, err
	}
	tail := p.recs[0][r.warm/2:]
	return float64(tail[len(tail)-1].t2-tail[0].t0) / 1e9 / float64(len(tail)), nil
}

// minTimedSteps is the fewest timed steps a pass is sized to, however slow
// the host.
const minTimedSteps = 10

// sizeSteps turns a time budget into a step count, never below floor.
func (r *runner) sizeSteps(budgetSec, stepSec float64, floor int) int {
	if r.opts.steps > 0 {
		return r.opts.steps
	}
	n := int(budgetSec / stepSec)
	if n < floor {
		n = floor
	}
	return n
}

// readQuality reads what the finished quality pass p learned and sent: the
// mean training loss of both workers over the last tenth of its timed
// steps, the held-out accuracy of the global model, and the bytes the server
// tier counted, warm-up included. All three depend on the inputs alone.
func (r *runner) readQuality(p *pass) {
	tail := max(1, r.quality/10)
	loss := r.finalLoss(p, tail)
	nn.CopyBatchNormStats(p.global, p.workers[0].Model)
	r.vals["final_loss"] = loss
	r.vals["test_acc"] = accuracy(p.global, p.in)
	r.vals["wire_bytes_per_step"] = float64(p.endPush+p.endPull) / float64(r.warm+r.quality)
	r.res.Samples["loss_steps"] = float64(tail)
}

// finalLoss is the mean training loss of both workers over the last tail
// steps of p, which must be finite.
func (r *runner) finalLoss(p *pass, tail int) float64 {
	var losses []float64
	for w := range p.recs {
		for _, rec := range p.recs[w][len(p.recs[w])-tail:] {
			losses = append(losses, rec.loss)
		}
	}
	loss := mean(losses)
	r.check("final loss is finite", !math.IsNaN(loss) && !math.IsInf(loss, 0), fmt.Sprint(loss))
	return loss
}

// timed is the measurement proper, tracing off. The quality pass runs the
// fixed inputs for the fixed quality steps and yields the counts; a
// warm-up-only pass and the timed pass, sized to fill the requested seconds,
// run the inputs of the run's seed and yield the timings. Each pass sets the
// whole topology up anew: three set-up samples.
func (r *runner) timed() error {
	// No pass is kept beyond what is read from it here, so peak memory is
	// one pass's.
	q, err := r.pass(qualitySeed, passConfig{steps: r.quality})
	if err != nil {
		return err
	}
	r.readQuality(q)
	setups := []float64{q.setupSec()}
	stepSec := q.window().wallSec / float64(r.quality)
	idle, err := r.pass(r.opts.seed, passConfig{})
	if err != nil {
		return err
	}
	setups = append(setups, idle.setupSec())
	n := r.sizeSteps(r.opts.seconds, stepSec, minTimedSteps)
	p, err := r.pass(r.opts.seed, passConfig{steps: n})
	if err != nil {
		return err
	}
	setups = append(setups, p.setupSec())
	win := p.window()
	r.hostChecks("timed pass", p, win)

	t := win.timings()
	v := r.vals
	v["setup_s"] = median(setups)
	v["exchange_refops_p50"] = t.exchangeRefops
	v["peak_rss_mb"] = peakRSSMB()

	s := r.res.Samples
	s["timed_steps"] = float64(n)
	s["quality_steps"] = float64(r.quality)
	s["quality_seed"] = qualitySeed
	s["step_scale"] = stepScale
	s["warmup_steps"] = float64(r.warm)
	s["setups"] = float64(len(setups))
	s["timed_wall_s"] = win.wallSec
	// The same timings as the clocks read them; the traced run reports
	// these as per-layer metrics.
	s["step_ms_p50"] = t.stepMs
	s["exchange_ms_p50"] = t.exchangeMs
	s["cpu_ms_per_step"] = t.cpuMs
	s["steps_per_s"] = t.stepsPerSec
	s["refop_ms_p50"] = t.refMs
	s["link_busy_ms_per_step"] = t.linkMs
	s["stolen_cpu_share"] = win.stolen
	if p.shaper != nil {
		s["shaper.rate_err_frac"] = p.shaper.rateErr()
	}
	return nil
}

// traced yields the per-layer metrics: an untraced pass and a traced pass
// of the same seed and step count (their difference is the tracing
// overhead), the in-process reference the passes must match bit for bit,
// and the replay probes over what the traced pass captured.
func (r *runner) traced() error {
	stepSec, err := r.calibrate()
	if err != nil {
		return err
	}
	// Two passes and a reference run share the seconds.
	n := r.sizeSteps(0.3*r.opts.seconds, stepSec, minTimedSteps)
	plain, err := r.pass(r.opts.seed, passConfig{steps: n, memStats: true})
	if err != nil {
		return err
	}
	r.finalLoss(plain, max(1, n/10))
	tr, err := r.pass(r.opts.seed, passConfig{
		steps: n, traced: true,
		capture:     captureSteps(r.opts.wl, plain.global.NumParams()),
		captureSpan: captureSpan(r.opts.wl),
	})
	if err != nil {
		return err
	}

	if span := captureSpan(r.opts.wl); n < span && r.opts.steps == 0 {
		r.res.Unresolved = append(r.res.Unresolved,
			fmt.Sprintf("traced pass: the host fitted %d steps, fewer than the %d the captured steps are spread over: counts over the captured wires are not those of a full run", n, span))
	}

	ref, err := referenceRun(r.opts.wl, r.opts.seed, r.warm+r.quality, r.warm+n)
	r.res.Attempted += r.warm + n
	if err != nil {
		r.res.Failed += r.warm + n
		return err
	}
	r.check("untraced pass over TCP matches the in-process reference bit for bit", plain.globalHash == ref, "global weights differ")
	r.check("traced pass over TCP matches the in-process reference bit for bit", tr.globalHash == ref, "global weights differ")
	r.check("same seed, same wire bytes",
		plain.endPush == tr.endPush && plain.endPull == tr.endPull,
		fmt.Sprintf("push %d vs %d, pull %d vs %d", plain.endPush, tr.endPush, plain.endPull, tr.endPull))

	probes, err := runProbes(r.opts.wl, tr.in, tr.psCfg, tr.captures, tr.timed == nil)
	if err != nil {
		return err
	}
	for k, val := range probes {
		r.vals[k] = val
	}
	r.layerMetrics(plain, tr, n)
	if r.opts.traceOut != "" {
		if err := writeTrace(r.opts.traceOut, r.opts.wl.Name, tr.spans()); err != nil {
			return err
		}
	}
	return nil
}

// captureSpan is the number of timed steps the captured ones are spread
// over: half of the workload's quality steps, whatever the run's length.
func captureSpan(wl *workload) int { return max(1, wl.quality/2) }

// captureSteps bounds what the traced pass keeps for replay: up to 16
// steps, fewer when a step's gradients and wires are large.
func captureSteps(wl *workload, params int) int {
	const budget = 64 << 20
	perStep := 4 * params // worker 0's gradients
	if wl.scheme == compress.SchemeNone {
		perStep *= 4 // plus two raw pushes and the raw pull
	}
	return max(2, min(16, budget/perStep))
}

// layerMetrics derives the live per-layer metrics from the two passes.
func (r *runner) layerMetrics(plain, tr *pass, n int) {
	wl := r.opts.wl
	v := r.vals
	warm := r.warm

	plainWin, trWin := plain.window(), tr.window()
	r.hostChecks("untraced pass", plain, plainWin)
	r.hostChecks("traced pass", tr, trWin)
	plainStep, plainExch, trStep := plainWin.step, plainWin.exchange, trWin.step
	t := plainWin.timings()
	v["step.p50_ms"] = t.stepMs
	v["exchange.p50_ms"] = t.exchangeMs
	v["step.per_s"] = t.stepsPerSec
	v["step.cpu_ms"] = t.cpuMs
	v["host.refop_ms"] = t.refMs
	v["step.p90_ms"] = percentile(plainStep, 90)
	v["exchange.p90_ms"] = percentile(plainExch, 90)
	v["trace.overhead_frac"] = (median(trStep) - median(plainStep)) / median(plainStep)
	v["runtime.allocs_per_step"] = float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / float64(n)
	v["runtime.gc_pause_ms_per_step"] = ms(int64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)) / float64(n)

	var compute, peers, encode, apply, pushpull, write, barrier, turn, read, skew, wait, gap []float64
	recs := tr.recs[0]
	for s := warm; s < warm+n; s++ {
		rec := &recs[s]
		seg := tr.segments(s)
		compute = append(compute, ms(rec.t1-rec.t0))
		// The exchange opens when the last worker's gradient is ready; on
		// one processor that worker encodes and pushes before this one runs.
		begin := min(rec.enc0, rec.px0)
		peers = append(peers, ms(begin-rec.t1+rec.t2-rec.ap1))
		encode = append(encode, ms(rec.enc1-rec.enc0))
		apply = append(apply, ms(rec.applyBusy))
		pushpull = append(pushpull, ms(rec.px1-rec.px0))
		write = append(write, ms(seg.own-rec.px0))
		barrier = append(barrier, ms(seg.all-seg.own))
		turn = append(turn, ms(seg.first-seg.all))
		read = append(read, ms(seg.last-seg.first))
		skew = append(skew, ms(seg.last-seg.lastMin))
		wait = append(wait, ms(rec.slept-recs[s-1].slept))
		iv := [][2]int64{
			{rec.t0, rec.t1}, {rec.t1, begin}, {rec.enc0, rec.enc1}, {rec.px0, seg.own}, {seg.own, seg.all},
			{seg.all, seg.first}, {seg.first, seg.last}, {rec.ap0, rec.ap1}, {rec.ap1, rec.t2},
		}
		gap = append(gap, 1-float64(covered(iv, rec.t0, rec.t2))/float64(rec.t2-rec.t0))
	}
	v["nn.compute_ms"] = median(compute)
	v["step.peer_wait_ms"] = median(peers)
	v["ps.worker_encode_ms"] = median(encode)
	v["ps.worker_apply_ms"] = median(apply)
	v["transport.pushpull_ms"] = median(pushpull)
	v["transport.push_write_ms"] = median(write)
	v["transport.barrier_wait_ms"] = median(barrier)
	v["transport.server_turnaround_ms"] = median(turn)
	v["transport.pull_read_ms"] = median(read)
	v["shard.skew_ms"] = median(skew)
	v["shaper.wire_wait_ms"] = median(wait)
	v["ledger.unattributed_frac"] = median(gap)

	if tr.timed != nil {
		v["ps.server_add_push_ms"] = median(tr.timed.add[warm:])
		v["ps.server_finish_ms"] = median(tr.timed.finish[warm:])
	}

	// Socket counters, both workers, over the timed window.
	var sock, codec, writes, reads int64
	var sockAll, codecAll int64
	for w := range tr.recs {
		a, b := tr.recs[w][warm-1], tr.recs[w][warm+n-1]
		sock += b.sockBytes - a.sockBytes
		codec += b.codecBytes - a.codecBytes
		writes += b.ioCalls[0] - a.ioCalls[0]
		reads += b.ioCalls[1] - a.ioCalls[1]
		sockAll += b.sockBytes
		codecAll += b.codecBytes
	}
	v["transport.frame_overhead_bytes"] = float64(sock-codec) / float64(n)
	v["transport.writes_per_step"] = float64(writes) / float64(n)
	v["transport.reads_per_step"] = float64(reads) / float64(n)
	traffic := tr.endPush + tr.endPull
	r.check("TrafficBytes lies between the codec's bytes and the socket's",
		codecAll <= traffic && traffic <= sockAll,
		fmt.Sprintf("codec %d, TrafficBytes %d, socket %d", codecAll, traffic, sockAll))

	// Per-shard share of the captured push bytes under the placement.
	asn := shard.ForModel(tr.global, wl.shards)
	var imbalance []float64
	for _, c := range tr.captures {
		load := make([]float64, wl.shards)
		var sum float64
		for i, wire := range c.push[0] {
			load[asn.ShardOf[i]] += float64(len(wire))
			sum += float64(len(wire))
		}
		var worst float64
		for _, l := range load {
			worst = math.Max(worst, l)
		}
		imbalance = append(imbalance, worst*float64(wl.shards)/sum)
	}
	v["shard.imbalance"] = median(imbalance)

	v["shaper.rate_err_frac"] = 0
	v["netsim.pred_step_ms"] = 0
	v["netsim.pred_err_frac"] = 0
	s := r.res.Samples
	if tr.shaper != nil {
		v["shaper.rate_err_frac"] = tr.shaper.rateErr()
		s["shaper.ingress_bps"], _ = tr.shaper.ingress.achieved()
		s["shaper.egress_bps"], _ = tr.shaper.egress.achieved()
		// Past maxShaperRateErr hostChecks has flagged the run: late timer
		// wake-ups and stalled pacing goroutines slow the link, and say
		// nothing about the program under test.

		// The model's prediction for this run, fed what the run measured:
		// median per-worker push and pull bytes, compute, and the codec
		// seconds on the critical path (one worker's plus the server's).
		var push, pull []float64
		for _, c := range tr.captures {
			push = append(push, float64(ps.WireBytes(c.push[0])))
			pull = append(pull, float64(ps.WireBytes(c.pull)))
		}
		np := netsim.DefaultParams(wl.linkBps)
		np.Workers = numWorkers
		np.ComputeSec = v["nn.compute_ms"] / 1e3
		codecSec := (v["ps.worker_encode_ms"] + v["ps.worker_apply_ms"] +
			v["ps.server_add_push_ms"] + v["ps.server_finish_ms"]) / 1e3
		pred := np.StepTime(repeat(numWorkers, int(median(push))), repeat(numWorkers, int(median(pull))), codecSec)
		measured := median(plainStep)
		v["netsim.pred_step_ms"] = pred * 1e3
		v["netsim.pred_err_frac"] = math.Abs(pred*1e3-measured) / measured
		s["netsim.push_bytes_per_worker"] = median(push)
		s["netsim.pull_bytes_per_worker"] = median(pull)
		s["netsim.compute_ms"] = v["nn.compute_ms"]
		s["netsim.codec_ms"] = codecSec * 1e3
		s["netsim.overlap_fraction"] = np.OverlapFraction
		s["netsim.measured_step_ms"] = measured
	}

	s["timed_steps"] = float64(n)
	s["warmup_steps"] = float64(warm)
	s["captured_steps"] = float64(len(tr.captures))
	s["untraced_step_ms_p50"] = median(plainStep)
	s["traced_step_ms_p50"] = median(trStep)
}

// wireSegments are the byte events that cut one of worker 0's exchanges:
// its own last push byte, the slowest worker's last push byte, the first
// pull byte, and the last pull byte on its fastest and slowest shard.
type wireSegments struct {
	own, all, first, lastMin, last int64
}

func (p *pass) segments(s int) wireSegments {
	var g wireSegments
	for w := range p.meters {
		for _, mc := range p.meters[w] {
			m := mc.marks[s]
			g.all = max(g.all, m.lastWrite)
			if w != 0 {
				continue
			}
			g.own = max(g.own, m.lastWrite)
			g.last = max(g.last, m.lastRead)
			if g.first == 0 || m.firstRead < g.first {
				g.first = m.firstRead
			}
			if g.lastMin == 0 || m.lastRead < g.lastMin {
				g.lastMin = m.lastRead
			}
		}
	}
	// A peer's stamp is taken after its write returns, so it can trail
	// the pull it caused; keep the cut points in order.
	g.all = min(g.all, g.first)
	g.own = min(g.own, g.all)
	return g
}

// spans lays the traced pass's timelines out as a span tree per step.
func (p *pass) spans() []span {
	var t trace
	for w := range p.recs {
		for s := range p.recs[w] {
			rec := &p.recs[w][s]
			root := t.add("step", rec.t0, rec.t2, -1, s, w)
			t.add("nn.compute", rec.t0, rec.t1, root, s, w)
			t.add("step.peer_wait", rec.t1, min(rec.enc0, rec.px0), root, s, w)
			t.add("step.peer_wait", rec.ap1, rec.t2, root, s, w)
			px := t.add("transport.pushpull", rec.px0, rec.px1, root, s, w)
			// The streamed pipeline encodes and applies inside the
			// exchange; the whole-set one around it.
			inner := root
			if p.cfg.wl.stream {
				inner = px
			}
			t.add("ps.worker_encode", rec.enc0, rec.enc1, inner, s, w)
			t.add("ps.worker_apply", rec.ap0, rec.ap1, inner, s, w)
			if w == 0 {
				g := p.segments(s)
				t.add("transport.push_write", rec.px0, g.own, px, s, w)
				t.add("transport.barrier_wait", g.own, g.all, px, s, w)
				t.add("transport.server_turnaround", g.all, g.first, px, s, w)
				t.add("transport.pull_read", g.first, g.last, px, s, w)
			}
		}
	}
	selfTimes(t.spans)
	return t.spans
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
