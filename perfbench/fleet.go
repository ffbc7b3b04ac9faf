package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"repro/internal/fleet"
	"repro/internal/units"
)

// fleet-room: fleet.Run over many drives with short per-drive streams and
// two workers. It loads per-drive set-up (one seeded generator per
// stream), the parallel shard pool and the airstream coupling, which the
// long single streams of the other workloads amortise away. The room runs
// warm (40 C inlet, 30% recirculation) so that temperature-triggered
// migrations happen; throttling stays off, because in this model a drive
// whose idle temperature sits above the release point pauses for the
// 30-minute cap, which would make the workload's cost depend on the seed.

const (
	fleetInputs  = 4
	fleetWorkers = 2
)

type fleetBench struct {
	cfgs   []fleet.Config
	ref    []fleetOut
	drives int
	reqs   int64 // requests per fleet run
}

// fleetOut is one fleet run: its summary and a digest of the rack stream as
// fleetsim would write it.
type fleetOut struct {
	sum     fleet.Summary
	digest  digest
	racks   int
	corrupt corruption
}

func newFleetBench(o options) *fleetBench {
	topo := fleet.Topology{Racks: 32, ChassisPerRack: 8, SlotsPerChassis: 8}
	if o.small {
		topo = fleet.Topology{Racks: 2, ChassisPerRack: 2, SlotsPerChassis: 4}
	}
	b := &fleetBench{drives: topo.Drives()}
	for k := 0; k < fleetInputs; k++ {
		b.cfgs = append(b.cfgs, fleet.Config{
			Topology:  topo,
			Scenario:  fleet.Scenario{RoomInlet: 40, Recirculation: 0.3},
			Workload:  fleet.Workload{RequestsPerDrive: 40, Seed: splitmix(o.seed, k)},
			Placement: fleet.PlaceCoolest,
			Migration: fleet.Migration{ThresholdC: units.Celsius(43.5)},
			Workers:   fleetWorkers,
		})
	}
	b.reqs = int64(b.drives) * 40
	return b
}

// rackSpans times a traced run's sink: the gaps between rack summaries and
// the JSON encoding of each.
type rackSpans struct {
	last    time.Time
	gaps    []float64 // ms
	encode  int64     // ns
	encoded int
}

// replay runs input k with the given worker count, hashing every rack
// summary's JSON line.
func (b *fleetBench) replay(k, workers int, corrupt corruption, spans *rackSpans) (fleetOut, error) {
	cfg := b.cfgs[k]
	cfg.Workers = workers
	out := fleetOut{corrupt: corrupt}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sink := func(rs fleet.RackSummary) error {
		var t time.Time
		if spans != nil {
			t = time.Now()
			if !spans.last.IsZero() {
				spans.gaps = append(spans.gaps, t.Sub(spans.last).Seconds()*1e3)
			}
		}
		buf.Reset()
		if err := enc.Encode(rs); err != nil {
			return err
		}
		if spans != nil {
			spans.last = time.Now()
			spans.encode += int64(spans.last.Sub(t))
			spans.encoded++
		}
		line := buf.Bytes()
		switch out.corrupt {
		case corruptDrop:
			out.corrupt = corruptNone
			return nil
		case corruptAlter:
			out.corrupt = corruptNone
			line[0] ^= 1 // the summary and the rack count stay right
		}
		out.racks++
		for _, c := range line {
			out.digest.add(uint64(c))
		}
		return nil
	}
	if spans != nil {
		spans.last = time.Time{}
	}
	var err error
	out.sum, err = fleet.Run(context.Background(), cfg, sink)
	return out, err
}

func (b *fleetBench) ok(out fleetOut) bool {
	return out.sum.Requests == b.reqs && out.racks == b.cfgs[0].Topology.Racks
}

// warm runs every input once on one worker; the timed runs use two, so
// their checks also prove the worker count does not change the output.
func (b *fleetBench) warm(r *report) error {
	for k := range b.cfgs {
		out, err := b.replay(k, 1, corruptNone, nil)
		if err != nil {
			return err
		}
		r.check(b.ok(out), "fleet-room warm-up input %d: %d of %d requests, %d racks", k, out.sum.Requests, b.reqs, out.racks)
		b.ref = append(b.ref, out)
	}
	return nil
}

func (b *fleetBench) job(o options, r *report, i, workers int, spans *rackSpans) {
	k := i % len(b.cfgs)
	out, err := b.replay(k, workers, o.corrupt, spans)
	if err != nil {
		r.fail(err)
		return
	}
	r.check(b.ok(out) && out.digest == b.ref[k].digest && out.sum == b.ref[k].sum,
		"fleet-room input %d at %d workers: %d of %d requests, digest %x want %x",
		k, workers, out.sum.Requests, b.reqs, out.digest, b.ref[k].digest)
}

func fleetE2E(o options, r *report) error {
	b := newFleetBench(o)
	if err := b.warm(r); err != nil {
		return err
	}
	durs := jobLoop(o.budget, 1, func(i int) { b.job(o, r, i, fleetWorkers, nil) })
	setOpsPerSecond(r, durs, int(b.reqs))
	r.set("max_rss_mb", maxRSSMB(), "MB")
	setup, err := medianTime(o.setupBudget(), 5, 5000, func() error {
		_, err := fleet.PreviewFleet(b.cfgs[0])
		return err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	mean, hot := 0.0, 0.0
	for _, out := range b.ref {
		mean += out.sum.MeanLatencyMS / float64(len(b.ref))
		hot = max(hot, out.sum.HottestAirC)
	}
	r.set("sim_resp_mean_ms", mean, "ms")
	r.set("sim_max_temp_c", hot, "C")
	return nil
}

// fleetLedger is fleet-room's part of the traced run: untraced two-worker
// runs, traced two-worker runs and one-worker runs in rotation, then direct
// loops for the preview and the airstream.
func fleetLedger(o options, r *report, home bool) error {
	b := newFleetBench(o)
	if err := b.warm(r); err != nil {
		return err
	}
	var plain, traced, single []float64
	var spans rackSpans
	var alloc uint64
	untracedOps := 0
	jobLoop(o.budget*7/10, 3, func(i int) {
		t := time.Now()
		switch i % 3 {
		case 0:
			a := heapAllocated()
			t = time.Now() // after the allocation reading
			b.job(o, r, i/3, fleetWorkers, nil)
			plain = append(plain, time.Since(t).Seconds())
			alloc += heapAllocated() - a
			untracedOps += int(b.reqs)
		case 1:
			b.job(o, r, i/3, fleetWorkers, &spans)
			traced = append(traced, time.Since(t).Seconds())
		default:
			b.job(o, r, i/3, 1, nil)
			single = append(single, time.Since(t).Seconds())
		}
	})
	r.set("fleet.drive_us", median(plain)*1e6/float64(b.drives), "us")
	r.set("fleet.rack_ms", median(spans.gaps), "ms")
	r.set("fleet.sink_ns", float64(spans.encode)/float64(spans.encoded), "ns")
	r.set("parallel.speedup", median(single)/median(plain), "ratio")

	loop := o.budget * 3 / 10 / 2
	preview, err := medianTime(loop, 3, 1000, func() error {
		_, err := fleet.PreviewFleet(b.cfgs[0])
		return err
	})
	if err != nil {
		return err
	}
	r.set("fleet.preview_ms", preview*1e3, "ms")

	// One chassis airstream: eight drives at a 2005 drive's worst-case
	// dissipation.
	air := fleet.Airstream{Inlet: 40, AirflowCFM: 30}
	watts := make([]units.Watts, b.cfgs[0].Topology.SlotsPerChassis)
	for i := range watts {
		watts[i] = units.Watts(9 + 0.25*float64(i))
	}
	stream, err := medianTime(loop, 5, 5000, func() error {
		air.Ambients(watts)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("thermal.airstream_ns", stream*1e9, "ns")

	var migrations, p99 float64
	for _, out := range b.ref {
		migrations += float64(out.sum.Migrations) / float64(len(b.ref))
		p99 += out.sum.P99LatencyMS / float64(len(b.ref))
	}
	r.set("fleet.migrations", migrations, "count")
	r.set("fleet.sim_p99_ms", p99, "ms")

	if home {
		setTraceOverhead(r, median(plain), median(traced))
		setAllocPerOp(r, alloc, untracedOps)
	}
	return nil
}
