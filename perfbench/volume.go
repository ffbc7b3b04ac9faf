package main

import (
	"errors"
	"time"

	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// volume-tpcc: the paper's TPC-C trace (RAID-5 over four disks, 45%
// writes) streamed through raid.Volume.RunStream. It loads trace
// generation, the event engine, RAID-5 read-modify-write fan-out,
// capacity.Locate and the disksim segment cache; thermal and the service
// layer are untouched.

// volumeInputs is how many distinct seeded traces a run cycles through.
// Timed jobs cycle through the inputs, whose outputs the warm-up pass has
// already recorded, so every timed job's output is checked exactly.
const volumeInputs = 4

type volumeBench struct {
	params []trace.Params
	ref    []volumeOut
	good   []int // inputs whose warm-up replay passed its checks
	n      int
}

// volumeOut is what one replay produced: a digest of every completion plus
// the simulated aggregates the metrics report.
type volumeOut struct {
	digest  digest
	count   int
	causal  bool // every completion finishes at or after its arrival
	resp    stats.Running
	subs    int64
	hits    int64
	queue   time.Duration
	seek    time.Duration
	rot     time.Duration
	xfer    time.Duration
	corrupt corruption
}

func (v *volumeOut) add(c raid.Completion) {
	switch v.corrupt {
	case corruptDrop:
		v.corrupt = corruptNone
		return
	case corruptAlter:
		v.corrupt = corruptNone
		c.Finish++ // still causal, and the count stays right
	}
	v.count++
	if c.Finish < c.Request.Arrival {
		v.causal = false
	}
	v.resp.Add(c.Response())
	v.digest.add(uint64(c.Request.ID), uint64(c.Finish), uint64(c.SubRequests), uint64(c.CacheHits))
	v.subs += int64(c.SubRequests)
	v.hits += int64(c.CacheHits)
	v.queue += c.Parts.Queue
	v.seek += c.Parts.Seek
	v.rot += c.Parts.Rotation
	v.xfer += c.Parts.Transfer
}

func newVolumeBench(o options) (*volumeBench, error) {
	base, err := trace.WorkloadByName("TPC-C")
	if err != nil {
		return nil, err
	}
	n := 200_000
	if o.small {
		n = 2_000
	}
	b := &volumeBench{n: n}
	for k := 0; k < volumeInputs; k++ {
		p := base.WithRequests(n)
		p.Seed = splitmix(o.seed, k)
		b.params = append(b.params, p)
	}
	return b, nil
}

// replay builds a fresh volume (empty segment caches) and streams input k
// through RunStream. With spans set, the trace source and the sink are
// timed per call.
func (b *volumeBench) replay(k int, corrupt corruption, spans *streamSpans) (volumeOut, error) {
	p := b.params[k]
	vol, err := p.BuildVolume(p.BaselineRPM)
	if err != nil {
		return volumeOut{}, err
	}
	stream, err := p.Stream(vol.Capacity())
	if err != nil {
		return volumeOut{}, err
	}
	out := volumeOut{causal: true, corrupt: corrupt}
	var src sim.Source[raid.Request] = stream
	var sink sim.Sink[raid.Completion] = sim.SinkFunc[raid.Completion](out.add)
	if spans != nil {
		src = &spanSource[raid.Request]{src: src, span: &spans.next}
		sink = &spanSink[raid.Completion]{sink: sink, span: &spans.push}
	}
	err = vol.RunStream(sim.NewEngine(), src, sink)
	return out, err
}

// check compares a replay of input k with the warm-up reference.
func (b *volumeBench) check(r *report, k int, out volumeOut) {
	ref := b.ref[k]
	r.check(out.count == b.n && out.causal && out.digest == ref.digest,
		"volume-tpcc input %d: %d of %d completions, causal=%t, digest %x want %x",
		k, out.count, b.n, out.causal, out.digest, ref.digest)
}

// warm replays every input once, untimed, and keeps the outputs as the
// reference the timed jobs must reproduce. An input whose replay errors or
// fails its checks counts as a failed operation and is left out of the
// timed jobs and the simulated metrics, so the run still reports it in
// `failed` while its cut-short replays do not pass for fast ones.
func (b *volumeBench) warm(r *report) error {
	for k := range b.params {
		out, err := b.replay(k, corruptNone, nil)
		ok := err == nil && out.count == b.n && out.causal
		r.check(ok, "volume-tpcc warm-up input %d: %d of %d completions, causal=%t, error %v",
			k, out.count, b.n, out.causal, err)
		b.ref = append(b.ref, out)
		if ok {
			b.good = append(b.good, k)
		}
	}
	if len(b.good) == 0 {
		return errors.New("every volume-tpcc input failed its warm-up")
	}
	return nil
}

// goodRefs returns the warm-up outputs of the inputs that passed.
func (b *volumeBench) goodRefs() []volumeOut {
	refs := make([]volumeOut, len(b.good))
	for i, k := range b.good {
		refs[i] = b.ref[k]
	}
	return refs
}

func (b *volumeBench) job(o options, r *report, i int, spans *streamSpans) {
	k := b.good[i%len(b.good)]
	out, err := b.replay(k, o.corrupt, spans)
	if err != nil {
		r.fail(err)
		return
	}
	b.check(r, k, out)
}

func volumeE2E(o options, r *report) error {
	b, err := newVolumeBench(o)
	if err != nil {
		return err
	}
	if err := b.warm(r); err != nil {
		return err
	}
	durs := jobLoop(o.budget, 1, func(i int) { b.job(o, r, i, nil) })
	setOpsPerSecond(r, durs, b.n)
	r.set("max_rss_mb", maxRSSMB(), "MB")
	p := b.params[0]
	setup, err := medianTime(o.setupBudget(), 5, 5000, func() error {
		vol, err := p.BuildVolume(p.BaselineRPM)
		if err != nil {
			return err
		}
		_, err = p.Stream(vol.Capacity())
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")

	var resp stats.Running
	for _, out := range b.goodRefs() {
		resp.Merge(&out.resp)
	}
	r.set("sim_resp_mean_ms", resp.Mean(), "ms")
	hot, err := memberWorstCaseAir(p)
	if err != nil {
		return err
	}
	r.set("sim_max_temp_c", hot, "C")
	return nil
}

// memberWorstCaseAir is the steady internal-air temperature of the
// volume's member disk at its RPM under the always-seeking load. The
// volume stream has no thermal coupling, so this is its hottest modelled
// temperature.
func memberWorstCaseAir(p trace.Params) (float64, error) {
	layout, err := p.MemberDiskLayout()
	if err != nil {
		return 0, err
	}
	m, err := thermal.New(layout.Config().Geometry)
	if err != nil {
		return 0, err
	}
	return float64(m.SteadyState(thermal.WorstCase(p.BaselineRPM)).Air), nil
}

// volumeLedger is volume-tpcc's part of the traced run. Untraced and
// traced replays alternate so host drift hits both alike; direct loops then
// time each layer's public entry point on input 0 in arrival order.
func volumeLedger(o options, r *report, home bool) error {
	b, err := newVolumeBench(o)
	if err != nil {
		return err
	}
	if err := b.warm(r); err != nil {
		return err
	}
	var plain, traced []float64
	var spans streamSpans
	var alloc uint64
	untracedOps := 0
	jobLoop(o.budget*6/10, 2, func(i int) {
		t := time.Now()
		if i%2 == 0 {
			a := heapAllocated()
			t = time.Now() // after the allocation reading
			b.job(o, r, i/2, nil)
			plain = append(plain, time.Since(t).Seconds())
			alloc += heapAllocated() - a
			untracedOps += b.n
			return
		}
		b.job(o, r, i/2, &spans)
		traced = append(traced, time.Since(t).Seconds())
	})
	r.set("trace.next_ns", spans.next.mean(), "ns")
	r.set("stats.add_ns", spans.push.mean(), "ns")

	// Direct loops over the first input that passed, collected once.
	p := b.params[b.good[0]]
	vol, err := p.BuildVolume(p.BaselineRPM)
	if err != nil {
		return err
	}
	stream, err := p.Stream(vol.Capacity())
	if err != nil {
		return err
	}
	reqs := sim.Collect[raid.Request](stream)
	loop := o.budget * 4 / 10 / 4

	// Direct Serve calls and RunStream over the same collected requests
	// alternate; the difference per request is the event engine's own
	// cost, and the two completion digests must agree.
	serveRun := func(vol *raid.Volume, out *volumeOut) error {
		for _, q := range reqs {
			c, err := vol.Serve(q)
			if err != nil {
				return err
			}
			out.add(c)
		}
		return nil
	}
	streamRun := func(vol *raid.Volume, out *volumeOut) error {
		return vol.RunStream(sim.NewEngine(), sim.FromSlice(reqs), sim.SinkFunc[raid.Completion](out.add))
	}
	var serveS, streamS []float64
	var direct, streamed volumeOut
	timed := func(run func(*raid.Volume, *volumeOut) error, out *volumeOut) (float64, error) {
		vol, err := p.BuildVolume(p.BaselineRPM)
		if err != nil {
			return 0, err
		}
		*out = volumeOut{causal: true}
		t := time.Now()
		err = run(vol, out)
		return time.Since(t).Seconds(), err
	}
	for deadline := time.Now().Add(2 * loop); len(serveS) < 2 || time.Now().Before(deadline); {
		secs, err := timed(serveRun, &direct)
		if err != nil {
			return err
		}
		serveS = append(serveS, secs)
		if secs, err = timed(streamRun, &streamed); err != nil {
			return err
		}
		streamS = append(streamS, secs)
	}
	r.check(direct.digest == streamed.digest,
		"volume-tpcc: direct Serve digest %x differs from RunStream digest %x", direct.digest, streamed.digest)
	perReq := func(secs []float64) float64 { return median(secs) * 1e9 / float64(len(reqs)) }
	r.set("raid.serve_ns", perReq(serveS), "ns")
	r.set("sim.engine_ns", perReq(streamS)-perReq(serveS), "ns")

	var lbns []int64
	explode, err := medianTime(loop, 2, 50, func() error {
		collect := lbns == nil
		for _, q := range reqs {
			subs, err := vol.Explode(q)
			if err != nil {
				return err
			}
			if collect {
				for _, s := range subs {
					lbns = append(lbns, s.Request.LBN)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("raid.explode_ns", explode*1e9/float64(len(reqs)), "ns")
	layout := vol.Disks()[0].Layout()
	locate, err := medianTime(loop, 2, 200, func() error {
		for _, lbn := range lbns {
			if _, err := layout.Locate(lbn); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("capacity.locate_ns", locate*1e9/float64(len(lbns)), "ns")
	r.set("raid.subreqs_per_req", float64(len(lbns))/float64(len(reqs)), "count")

	tracedNs := nsPerOp(traced, b.n)

	// Simulated breakdown of the reference replays: identical for any
	// host-only change.
	var ref volumeOut
	for _, out := range b.goodRefs() {
		ref.count += out.count
		ref.subs += out.subs
		ref.hits += out.hits
		ref.queue += out.queue
		ref.seek += out.seek
		ref.rot += out.rot
		ref.xfer += out.xfer
	}
	perReqMs := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(ref.count) }
	r.set("disksim.cache_hit_ratio", float64(ref.hits)/float64(ref.subs), "ratio")
	r.set("disksim.sim_queue_ms", perReqMs(ref.queue), "ms")
	r.set("disksim.sim_seek_ms", perReqMs(ref.seek), "ms")
	r.set("disksim.sim_rotation_ms", perReqMs(ref.rot), "ms")
	r.set("disksim.sim_transfer_ms", perReqMs(ref.xfer), "ms")

	if home {
		setTraceOverhead(r, nsPerOp(plain, b.n), tracedNs)
		setAllocPerOp(r, alloc, untracedOps)
	}
	return nil
}
