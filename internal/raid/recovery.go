// Degraded-mode operation and rebuild: the recovery half of the fault
// model. A RecoverySession services volume requests one at a time, detects
// member failures raised by the disks' fault injectors (disksim.ErrDiskFailed),
// re-issues the failed request against the survivors — mirror reads fail
// over, RAID-5 reads reconstruct from the k-1 survivors with an XOR cost —
// and replays reconstruction onto a hot spare at a configurable rate. While
// a member is down, writes that cannot keep full redundancy are logged as
// parity-loss exposure, and the rebuild window is scored with the
// reliability model's MTTDL-style double-failure risk.
package raid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/disksim"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/units"
)

// ErrDataLoss is returned when a request needs data that no surviving
// member (or spare) can supply: a second concurrent failure in a redundant
// volume, or any failure in RAID-0/JBOD.
var ErrDataLoss = errors.New("raid: data loss")

// Recovery defaults.
const (
	// DefaultRebuildMBPerSec is the spare-reconstruction rate: mid-2000s
	// array controllers rebuilt at a few tens of MB/s so foreground
	// service kept most of the bandwidth.
	DefaultRebuildMBPerSec = 40.0

	// DefaultXORPerSector prices the parity reconstruction compute per
	// 512-byte sector (~500 MB/s XOR engines of the era).
	DefaultXORPerSector = time.Microsecond
)

// FaultKind labels a recovery-timeline event.
type FaultKind int

// Event kinds.
const (
	EventDiskFailed FaultKind = iota
	EventRebuildStarted
	EventRebuildCompleted
	EventDataLoss
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case EventDiskFailed:
		return "disk-failed"
	case EventRebuildStarted:
		return "rebuild-started"
	case EventRebuildCompleted:
		return "rebuild-completed"
	case EventDataLoss:
		return "data-loss"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one entry of the recovery timeline.
type FaultEvent struct {
	Time time.Duration
	Kind FaultKind
	Disk int
}

// RecoveryConfig tunes the session.
type RecoveryConfig struct {
	// Reliability scores the rebuild window's double-failure risk.
	Reliability reliability.Model

	// Temp is the steady member temperature used for that scoring
	// (0 = the model's reference temperature).
	Temp units.Celsius

	// RebuildMBPerSec is the spare-reconstruction rate
	// (0 = DefaultRebuildMBPerSec).
	RebuildMBPerSec float64

	// XORPerSector prices degraded-read reconstruction compute
	// (0 = DefaultXORPerSector).
	XORPerSector time.Duration
}

func (c RecoveryConfig) rebuildRate() float64 {
	if c.RebuildMBPerSec == 0 {
		return DefaultRebuildMBPerSec
	}
	return c.RebuildMBPerSec
}

func (c RecoveryConfig) xorPerSector() time.Duration {
	if c.XORPerSector == 0 {
		return DefaultXORPerSector
	}
	return c.XORPerSector
}

// rebuild tracks one in-flight spare reconstruction. The frontier advances
// linearly at the configured rate; units below it live on the spare already.
type rebuild struct {
	start time.Duration
	done  time.Duration
	rate  float64 // sectors per second
}

func (rb *rebuild) frontier(now time.Duration) int64 {
	if now <= rb.start {
		return 0
	}
	return int64((now - rb.start).Seconds() * rb.rate)
}

// RecoveryReport summarises a fault-aware run.
type RecoveryReport struct {
	Completions []Completion
	Events      []FaultEvent

	// Degraded counts requests served with a member down; Reconstructions
	// counts on-the-fly reconstruct reads issued to survivors;
	// ExposedWrites counts writes committed without full redundancy;
	// LostRequests counts requests Run dropped because their data was
	// unrecoverable (non-redundant levels after a member loss).
	Degraded        int
	LostRequests    int
	Reconstructions int
	ExposedWrites   int

	// RebuildWindow is the (last) rebuild's duration; RebuildRisk is the
	// probability another member fails inside it (MTTDL-style); MTTDL is
	// the steady-state mean time to data loss the window implies.
	RebuildWindow time.Duration
	RebuildRisk   float64
	MTTDL         time.Duration
}

// RecoverySession drives a volume through a workload with failure
// detection, degraded-mode mapping and spare rebuild. It owns the volume
// for the duration of the run (not safe for concurrent use).
type RecoverySession struct {
	v      *Volume
	cfg    RecoveryConfig
	spares []*disksim.Disk

	rebuilds map[int]*rebuild
	report   RecoveryReport
}

// NewRecoverySession wraps a volume. Spares, if any, are consumed in order
// as members fail; each must match the member capacity.
func NewRecoverySession(v *Volume, cfg RecoveryConfig, spares ...*disksim.Disk) (*RecoverySession, error) {
	for i, s := range spares {
		if s.Layout().TotalSectors() != v.perDisk {
			return nil, fmt.Errorf("raid: spare %d capacity %d differs from members' %d",
				i, s.Layout().TotalSectors(), v.perDisk)
		}
	}
	return &RecoverySession{
		v:        v,
		cfg:      cfg,
		spares:   spares,
		rebuilds: make(map[int]*rebuild),
	}, nil
}

// Events returns the timeline so far.
func (s *RecoverySession) Events() []FaultEvent { return s.report.Events }

// Report returns the session's report so far. Completions are populated
// only by Run; RunStream callers take completions from their sink and read
// the counters and timeline here.
func (s *RecoverySession) Report() RecoveryReport { return s.report }

// Volume returns the managed volume.
func (s *RecoverySession) Volume() *Volume { return s.v }

// FailDisk scripts a member failure at a given time (in addition to any the
// disks' own fault injectors raise).
func (s *RecoverySession) FailDisk(i int, at time.Duration) error {
	if i < 0 || i >= len(s.v.disks) {
		return fmt.Errorf("raid: no member %d", i)
	}
	if s.v.failed[i] {
		return fmt.Errorf("raid: member %d already failed", i)
	}
	return s.noteFailure(i, at)
}

// noteFailure records a member loss and, when a spare is available, starts
// the rebuild: the spare takes the slot, and the reconstruction frontier
// advances at the configured rate from the moment of failure.
func (s *RecoverySession) noteFailure(i int, at time.Duration) error {
	v := s.v
	s.report.Events = append(s.report.Events, FaultEvent{Time: at, Kind: EventDiskFailed, Disk: i})
	if v.level == RAID0 || v.level == JBOD {
		s.report.Events = append(s.report.Events, FaultEvent{Time: at, Kind: EventDataLoss, Disk: i})
		v.failed[i], v.failedAt[i] = true, at
		return nil // reads of the lost member will return ErrDataLoss
	}
	for j := range v.failed {
		if v.failed[j] && j != i {
			// Second concurrent failure: the redundancy is gone.
			s.report.Events = append(s.report.Events, FaultEvent{Time: at, Kind: EventDataLoss, Disk: i})
			v.failed[i], v.failedAt[i] = true, at
			return fmt.Errorf("%w: members %d and %d down together", ErrDataLoss, j, i)
		}
	}
	v.failed[i], v.failedAt[i] = true, at

	if len(s.spares) > 0 {
		spare := s.spares[0]
		s.spares = s.spares[1:]
		spare.Delay(at) // the spare was idle until it was pulled in
		v.disks[i] = spare
		rate := s.cfg.rebuildRate() * units.MB / float64(units.SectorBytes)
		window := time.Duration(float64(v.perDisk) / rate * float64(time.Second))
		rb := &rebuild{start: at, done: at + window, rate: rate}
		s.rebuilds[i] = rb
		s.report.Events = append(s.report.Events, FaultEvent{Time: at, Kind: EventRebuildStarted, Disk: i})
		s.report.RebuildWindow = window
		s.report.RebuildRisk = RebuildRisk(s.cfg.Reliability, s.temp(), len(v.disks)-1, window)
		s.report.MTTDL = MTTDL(s.cfg.Reliability, s.temp(), len(v.disks), window)
	}
	return nil
}

func (s *RecoverySession) temp() units.Celsius {
	if s.cfg.Temp == 0 {
		return reliability.ReferenceTemp
	}
	return s.cfg.Temp
}

// advanceRebuilds retires rebuilds whose frontier has covered the member.
func (s *RecoverySession) advanceRebuilds(now time.Duration) {
	for i, rb := range s.rebuilds {
		if now >= rb.done {
			s.v.failed[i] = false
			delete(s.rebuilds, i)
			s.report.Events = append(s.report.Events,
				FaultEvent{Time: rb.done, Kind: EventRebuildCompleted, Disk: i})
			if s.v.ins != nil {
				s.v.ins.rebuilds.Inc()
			}
		}
	}
}

// failedMember returns the index of the (single) failed member, or -1.
func (s *RecoverySession) failedMember() int {
	for i, f := range s.v.failed {
		if f {
			return i
		}
	}
	return -1
}

// degradedSubs is the result of fault-aware request mapping.
type degradedSubs struct {
	subs       []sub
	xorSectors int  // reconstruction compute to charge at the join
	degraded   bool // a failed member shaped the mapping
	exposed    bool // a write lost redundancy
	recon      int  // reconstruct reads issued
}

// explodeDegraded maps a request with the current failure state applied.
func (s *RecoverySession) explodeDegraded(r Request) (degradedSubs, error) {
	v := s.v
	f := s.failedMember()
	if f < 0 {
		subs, err := v.mapRequest(r)
		return degradedSubs{subs: subs}, err
	}
	if r.Sectors <= 0 {
		return degradedSubs{}, fmt.Errorf("raid: request %d has %d sectors", r.ID, r.Sectors)
	}
	if r.Block < 0 || r.Block+int64(r.Sectors) > v.Capacity() {
		return degradedSubs{}, fmt.Errorf("raid: request %d range [%d,%d) outside volume [0,%d)",
			r.ID, r.Block, r.Block+int64(r.Sectors), v.Capacity())
	}
	rb := s.rebuilds[f]
	switch v.level {
	case RAID1:
		return s.explodeMirrorDegraded(r, f, rb), nil
	case RAID5:
		return s.explodeRAID5Degraded(r, f, rb), nil
	default:
		// RAID-0/JBOD have no redundancy: anything touching the lost
		// member is gone.
		subs, err := v.mapRequest(r)
		if err != nil {
			return degradedSubs{}, err
		}
		for _, sb := range subs {
			if sb.disk == f {
				return degradedSubs{}, fmt.Errorf("%w: request %d needs member %d", ErrDataLoss, r.ID, f)
			}
		}
		return degradedSubs{subs: subs, degraded: true}, nil
	}
}

// explodeMirrorDegraded: reads fail over to the survivor (or to the spare
// below the rebuild frontier); writes go to the survivor and, during a
// rebuild, to the spare too, but are exposed until the rebuild completes.
func (s *RecoverySession) explodeMirrorDegraded(r Request, f int, rb *rebuild) degradedSubs {
	surv := 1 - f
	req := disksim.Request{ID: r.ID, Arrival: r.Arrival, LBN: r.Block, Sectors: r.Sectors, Write: r.Write}
	out := degradedSubs{degraded: true}
	if r.Write {
		out.subs = append(out.subs, sub{surv, req})
		if rb != nil {
			out.subs = append(out.subs, sub{f, req})
		}
		out.exposed = true
		return out
	}
	if rb != nil && r.Block+int64(r.Sectors) <= rb.frontier(r.Arrival) {
		// The spare already holds this range: share the read load.
		s.v.readRR++
		if s.v.readRR%2 == 0 {
			out.subs = append(out.subs, sub{f, req})
			return out
		}
	}
	out.subs = append(out.subs, sub{surv, req})
	return out
}

// explodeRAID5Degraded walks the stripe units like mapStriped, substituting
// the degraded forms for units whose data or parity lived on the lost disk.
func (s *RecoverySession) explodeRAID5Degraded(r Request, f int, rb *rebuild) degradedSubs {
	v := s.v
	out := degradedSubs{degraded: true}
	block := r.Block
	remaining := int64(r.Sectors)
	for remaining > 0 {
		unit, off, size := v.unitAt(block)
		n := size - off
		if n > remaining {
			n = remaining
		}
		disk, base, parity := v.stripeLoc(unit, true)
		lbn := base + off
		rebuilt := rb != nil && lbn+n <= rb.frontier(r.Arrival)
		mk := func(d int, write bool) sub {
			return sub{d, disksim.Request{ID: r.ID, Arrival: r.Arrival, LBN: lbn, Sectors: int(n), Write: write}}
		}
		switch {
		case !r.Write && disk != f:
			// Data survives: a normal read.
			out.subs = append(out.subs, mk(disk, false))
		case !r.Write && rebuilt:
			// The spare has caught up past this unit.
			out.subs = append(out.subs, mk(f, false))
		case !r.Write:
			// Reconstruct from the k-1 survivors: same offsets on every
			// other member of the row, XORed together.
			for d := range v.disks {
				if d != f {
					out.subs = append(out.subs, mk(d, false))
					out.recon++
				}
			}
			out.xorSectors += int(n)
		case disk == f:
			// Write to the lost data disk: reconstruct-write. Read the
			// row's other data units, write the new parity; the data
			// itself lands only on the spare (if one is rebuilding).
			for d := range v.disks {
				if d != f && d != parity {
					out.subs = append(out.subs, mk(d, false))
					out.recon++
				}
			}
			out.subs = append(out.subs, mk(parity, true))
			out.xorSectors += int(n)
			if rb != nil {
				out.subs = append(out.subs, mk(f, true))
			}
			out.exposed = true
		case parity == f:
			// The row's parity is gone: write the data plain and log the
			// exposure.
			out.subs = append(out.subs, mk(disk, true))
			out.exposed = true
		default:
			// Both the unit and its parity survive: the usual RMW.
			out.subs = append(out.subs,
				mk(disk, false), mk(disk, true),
				mk(parity, false), mk(parity, true))
		}
		block += n
		remaining -= n
	}
	return out
}

// Serve services one volume request under the current failure state. A
// member failure raised mid-request fails the member over and re-issues the
// request degraded (the aborted attempt's mechanical time stays charged, as
// a controller retry would).
func (s *RecoverySession) Serve(r Request) (Completion, error) {
	s.advanceRebuilds(r.Arrival)
	for attempt := 0; attempt <= len(s.v.disks); attempt++ {
		ds, err := s.explodeDegraded(r)
		if err != nil {
			return Completion{}, err
		}
		c := Completion{
			Request:       r,
			SubRequests:   len(ds.subs),
			Degraded:      ds.degraded,
			Reconstructed: ds.xorSectors,
			Exposed:       ds.exposed && r.Write,
		}
		var finish time.Duration
		failed := -1
		c.SlowestDisk = -1
		comp := &s.v.subDone
		for _, sb := range ds.subs {
			if err := s.v.disks[sb.disk].ServeInto(comp, sb.req); err != nil {
				if errors.Is(err, disksim.ErrDiskFailed) {
					failed = sb.disk
					break
				}
				return Completion{}, err
			}
			// Same slowest-sub rule as Volume.Serve: max finish, ties to
			// the lowest member index.
			if c.SlowestDisk < 0 || comp.Finish > finish ||
				(comp.Finish == finish && sb.disk < c.SlowestDisk) {
				finish = comp.Finish
				c.Parts = comp.Parts
				c.SlowestDisk = sb.disk
			}
			if comp.CacheHit {
				c.CacheHits++
			}
		}
		if failed >= 0 {
			at := s.v.disks[failed].FailedAt()
			if err := s.noteFailure(failed, at); err != nil {
				return Completion{}, err
			}
			continue // re-issue against the survivors
		}
		if ds.xorSectors > 0 {
			finish += time.Duration(ds.xorSectors) * s.cfg.xorPerSector()
		}
		if s.v.writeBack > 0 && r.Write {
			finish = r.Arrival + s.v.writeBack
		}
		c.Finish = finish
		if ds.degraded {
			s.report.Degraded++
		}
		s.report.Reconstructions += ds.recon
		if c.Exposed {
			s.report.ExposedWrites++
		}
		if ins := s.v.ins; ins != nil {
			ins.record(&c)
			ins.reconstructions.Add(int64(ds.recon))
			if c.Exposed {
				ins.exposedWrites.Inc()
			}
		}
		return c, nil
	}
	return Completion{}, fmt.Errorf("%w: request %d found no serviceable mapping", ErrDataLoss, r.ID)
}

// RunStream services requests pulled lazily from src on an event engine,
// pushing each completion to sink as it happens. Requests whose data is
// unrecoverable (ErrDataLoss on a non-redundant level) are counted as lost
// and skipped, matching Run; any other error aborts the engine. The source
// must yield requests in nondecreasing arrival order.
func (s *RecoverySession) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	rs := &recoveryStream{s: s, src: src, sink: sink}
	rs.fire = rs.serve // one event closure for the whole run, not one per request
	rs.admit(eng)
	if err := eng.Run(); err != nil {
		return err
	}
	// Let rebuilds that outlive the trace complete on the report.
	if len(s.rebuilds) > 0 {
		var last time.Duration
		for _, rb := range s.rebuilds {
			if rb.done > last {
				last = rb.done
			}
		}
		s.advanceRebuilds(last)
	}
	return rs.failed
}

// recoveryStream is RecoverySession.RunStream's admission state, the same
// one-struct/one-closure pattern as volumeStream with the ErrDataLoss
// count-and-continue path added.
type recoveryStream struct {
	s      *RecoverySession
	src    sim.Source[Request]
	sink   sim.Sink[Completion]
	r      Request // the in-flight request, valid between admit and serve
	failed error
	fire   func(*sim.Engine)
}

func (rs *recoveryStream) admit(e *sim.Engine) {
	r, ok := rs.src.Next()
	if !ok {
		return
	}
	rs.r = r
	e.At(r.Arrival, rs.fire)
}

func (rs *recoveryStream) serve(e *sim.Engine) {
	c, err := rs.s.Serve(rs.r)
	if errors.Is(err, ErrDataLoss) {
		// Non-redundant level with a dead member: the request's data is
		// gone, but the replay goes on — the report counts the casualties
		// instead of aborting at the first one.
		rs.s.report.LostRequests++
		if rs.s.v.ins != nil {
			rs.s.v.ins.lostRequests.Inc()
		}
		rs.admit(e)
		return
	}
	if err != nil {
		rs.failed = err
		e.Fail(err)
		return
	}
	recordSpan(e.Tracer(), &c)
	rs.sink.Push(c)
	rs.admit(e)
}

// RunStreamCtx is RunStream with cooperative cancellation: the source is
// gated on ctx, so a cancelled context ends the replay at the next request
// admission and is reported as ctx.Err() instead of a silently-short run.
func (s *RecoverySession) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if err := s.RunStream(eng, sim.Gate(ctx, src), sink); err != nil {
		return err
	}
	return ctx.Err()
}

// Run services a workload (sorted by arrival internally) and returns the
// full report. It is the collect-into-slice wrapper over RunStream and
// stops early only on data loss in a redundant level or a malformed
// request.
func (s *RecoverySession) Run(reqs []Request) (RecoveryReport, error) {
	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
	err := s.RunStream(sim.NewEngine(), sim.FromSlice(sorted),
		sim.SinkFunc[Completion](func(c Completion) {
			s.report.Completions = append(s.report.Completions, c)
		}))
	return s.report, err
}

// RebuildRisk returns the probability that at least one of the survivors
// fails during the rebuild window at a steady temperature — the paper's
// doubling law applied to the window every array operator fears.
func RebuildRisk(m reliability.Model, temp units.Celsius, survivors int, window time.Duration) float64 {
	if survivors <= 0 || window <= 0 {
		return 0
	}
	return 1 - math.Pow(m.SurvivalAt(temp, window), float64(survivors))
}

// MTTDL estimates the mean time to data loss of an n-member single-fault-
// tolerant volume with repair time mttr at a steady temperature:
// MTTF^2 / (n * (n-1) * MTTR).
func MTTDL(m reliability.Model, temp units.Celsius, n int, mttr time.Duration) time.Duration {
	if n < 2 || mttr <= 0 {
		return time.Duration(math.MaxInt64)
	}
	mttfH := m.MTTFAt(temp).Hours()
	h := mttfH * mttfH / (float64(n) * float64(n-1) * mttr.Hours())
	if h >= float64(math.MaxInt64)/float64(time.Hour) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(h * float64(time.Hour))
}
