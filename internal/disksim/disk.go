package disksim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/capacity"
	"repro/internal/perf"
	"repro/internal/units"
)

// Scheduler selects the order queued requests are serviced in.
type Scheduler int

// Supported queueing disciplines.
const (
	// FCFS services requests in arrival order (the study's default).
	FCFS Scheduler = iota
	// SSTF services the queued request with the shortest seek distance.
	SSTF
	// SPTF services the queued request with the shortest estimated
	// positioning (seek + rotation) time.
	SPTF
	// LOOK sweeps the actuator across the surface, servicing queued
	// requests in cylinder order and reversing at the last request in the
	// current direction (the elevator algorithm).
	LOOK
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case FCFS:
		return "FCFS"
	case SSTF:
		return "SSTF"
	case SPTF:
		return "SPTF"
	case LOOK:
		return "LOOK"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Default configuration values.
const (
	DefaultCacheBytes    = 4 << 20 // the paper gives every disk a 4 MB cache
	DefaultCacheSegments = 16
	DefaultOverhead      = 200 * time.Microsecond // controller command overhead
	DefaultHeadSwitch    = 300 * time.Microsecond // surface/track boundary cost
	DefaultBusMBPerSec   = 160                    // Ultra160 SCSI era
	DefaultSettle        = 500 * time.Microsecond // post-retry/relocation head settle
)

// Config describes one simulated disk.
type Config struct {
	// Layout is the exact ZBR recording layout (required).
	Layout *capacity.Layout

	// RPM is the initial spindle speed (required).
	RPM units.RPM

	// Seek overrides the platter-size-derived seek parameters when nonzero.
	Seek perf.SeekParams

	// CacheBytes and CacheSegments size the read cache; -1 bytes disables
	// it, 0 means the 4 MB default.
	CacheBytes    int64
	CacheSegments int

	// Overhead is the per-request controller/bus overhead (0 = default).
	Overhead time.Duration

	// HeadSwitch is the cost of crossing a track/surface boundary during a
	// multi-track transfer (0 = default). Optimal skew is assumed, so no
	// extra rotational re-alignment is charged.
	HeadSwitch time.Duration

	// BusMBPerSec is the interface bandwidth used for cache-hit transfers
	// (0 = default).
	BusMBPerSec float64

	// Scheduler selects the queueing discipline for Simulate.
	Scheduler Scheduler

	// RetryProb, when non-nil, is consulted once per mechanical access
	// with the request's start time; it returns the probability that the
	// access suffers an off-track error and must retry after one full
	// extra revolution.
	//
	// Deprecated: RetryProb only models single retries. Use Faults with a
	// dtm.ThermalFaults injector, which adds multi-retry, unrecoverable-
	// sector and whole-disk failure paths. RetryProb is ignored when
	// Faults is set.
	RetryProb func(now time.Duration) float64

	// Faults, when non-nil, is consulted once per mechanical access and
	// can demand off-track retries, declare the sector unrecoverable
	// (spare-pool remapping), or fail the whole disk. This is how
	// thermally-induced errors (the failure mechanism the paper's
	// envelope guards against) couple into service time: a DTM layer
	// wires an injector to its thermal transient.
	Faults FaultInjector

	// Settle is the head-settle time charged per off-track retry and per
	// spare-area relocation (0 = DefaultSettle).
	Settle time.Duration

	// SparePool overrides the grown-defect spare-sector budget:
	// 0 = the layout's reserve-track pool (Layout.SpareSectors),
	// negative = no spares (the first unrecoverable sector fails the disk).
	SparePool int64
}

// Disk is one simulated drive. It is not safe for concurrent use.
type Disk struct {
	cfg    Config
	layout *capacity.Layout
	seek   *perf.SeekModel
	cache  *cache

	rpm     units.RPM
	headCyl int
	ready   time.Duration // when the disk is next free

	// Hot-path timing caches, derived in New (and refreshRev on SetRPM)
	// rather than recomputed per request. Each is the exact expression
	// Serve used to evaluate inline — identical operands, identical
	// operations — so hoisting them cannot change a single output bit.
	rev            time.Duration // one revolution at the current rpm
	revF           float64       // float64(rev): the rotation/transfer divisor
	busBytesPerSec float64       // BusMBPerSec*MB: cache-hit transfer divisor
	zoneSPT        []zoneRate    // per-zone sectors-per-track table
	cylsPerZone    int           // zone index = cylinder / cylsPerZone

	served  int64
	retries int64
	rng     uint64 // xorshift state for legacy RetryProb draws

	// ins is the optional metric handle set; nil (the default) keeps the
	// service path allocation- and observation-free.
	ins *Instruments

	failed    bool
	failedAt  time.Duration
	remaps    map[int64]int64 // grown-defect list: defective LBN -> spare slot
	sparePool int64
}

// New builds a disk.
func New(cfg Config) (*Disk, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("disksim: nil layout")
	}
	if cfg.RPM <= 0 {
		return nil, fmt.Errorf("disksim: non-positive RPM %v", cfg.RPM)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.CacheBytes < 0 {
		cfg.CacheBytes = 0
	}
	if cfg.CacheSegments == 0 {
		cfg.CacheSegments = DefaultCacheSegments
	}
	if cfg.Overhead == 0 {
		cfg.Overhead = DefaultOverhead
	}
	if cfg.HeadSwitch == 0 {
		cfg.HeadSwitch = DefaultHeadSwitch
	}
	if cfg.BusMBPerSec == 0 {
		cfg.BusMBPerSec = DefaultBusMBPerSec
	}
	if cfg.Settle == 0 {
		cfg.Settle = DefaultSettle
	}
	spares := cfg.SparePool
	if spares == 0 {
		spares = cfg.Layout.SpareSectors()
	}
	if spares < 0 {
		spares = 0
	}
	sp := cfg.Seek
	if sp == (perf.SeekParams{}) {
		sp = perf.SeekParamsForPlatter(cfg.Layout.Config().Geometry.PlatterDiameter)
	}
	sm, err := perf.NewSeekModel(sp, cfg.Layout.Cylinders)
	if err != nil {
		return nil, err
	}
	d := &Disk{
		cfg:       cfg,
		layout:    cfg.Layout,
		seek:      sm,
		cache:     newCache(cfg.CacheBytes, cfg.CacheSegments),
		rpm:       cfg.RPM,
		rng:       0x9e3779b97f4a7c15,
		remaps:    make(map[int64]int64),
		sparePool: spares,
	}
	d.refreshRev()
	d.busBytesPerSec = cfg.BusMBPerSec * units.MB
	zones := cfg.Layout.Zones
	d.zoneSPT = make([]zoneRate, len(zones))
	for i, z := range zones {
		d.zoneSPT[i] = zoneRate{spt: z.SectorsPerTrack, sptF: float64(z.SectorsPerTrack)}
	}
	d.cylsPerZone = cfg.Layout.Cylinders / len(zones) // zones are equal-sized
	return d, nil
}

// zoneRate is one slot of the per-zone timing table: the zone's
// sectors-per-track in the two forms the hot path consumes (the int for the
// track walk, the float64 divisor for angle/transfer fractions), saving the
// pointer chase and conversions of Layout.ZoneOfCylinder per request.
type zoneRate struct {
	spt  int
	sptF float64
}

// frac returns the fractional part of non-negative x. It equals
// math.Mod(x, 1) exactly — fmod by 1 reduces to x - trunc(x) and both
// operations are IEEE-exact — but math.Trunc compiles to one rounding
// instruction where math.Mod's frexp/ldexp loop dominated the
// rotational-latency calculation on the streaming profile.
func frac(x float64) float64 { return x - math.Trunc(x) }

// refreshRev recomputes the cached revolution time; called whenever rpm is
// set. The expression matches what period() always returned per call.
func (d *Disk) refreshRev() {
	d.rev = time.Duration(d.rpm.PeriodSeconds() * float64(time.Second))
	d.revF = float64(d.rev)
}

// Layout returns the disk's recording layout.
func (d *Disk) Layout() *capacity.Layout { return d.layout }

// RPM returns the current spindle speed.
func (d *Disk) RPM() units.RPM { return d.rpm }

// SetRPM changes the spindle speed (multi-speed disks; the DTM layer charges
// any transition penalty separately by pushing ReadyTime forward).
func (d *Disk) SetRPM(rpm units.RPM) error {
	if rpm <= 0 {
		return fmt.Errorf("disksim: non-positive RPM %v", rpm)
	}
	d.rpm = rpm
	d.refreshRev()
	return nil
}

// ReadyTime returns when the disk next becomes free.
func (d *Disk) ReadyTime() time.Duration { return d.ready }

// Delay pushes the disk's ready time forward (DTM throttling pauses, RPM
// transition penalties).
func (d *Disk) Delay(until time.Duration) {
	if until > d.ready {
		d.ready = until
	}
}

// HeadCylinder returns the current actuator position.
func (d *Disk) HeadCylinder() int { return d.headCyl }

// Served returns how many requests the disk has serviced.
func (d *Disk) Served() int64 { return d.served }

// Retries returns how many off-track retries have occurred.
func (d *Disk) Retries() int64 { return d.retries }

// rand draws a deterministic uniform float64 in [0,1) for retry decisions.
func (d *Disk) rand() float64 {
	d.rng ^= d.rng << 13
	d.rng ^= d.rng >> 7
	d.rng ^= d.rng << 17
	return float64(d.rng>>11) / float64(1<<53)
}

// period returns one revolution as a time.Duration.
func (d *Disk) period() time.Duration { return d.rev }

// Serve services one request, starting no earlier than the request's arrival
// or the disk's ready time. Callers are responsible for ordering (Simulate
// applies the configured scheduler). It is ServeInto returning a fresh
// Completion.
func (d *Disk) Serve(r Request) (Completion, error) {
	var c Completion
	if err := d.ServeInto(&c, r); err != nil {
		return Completion{}, err
	}
	return c, nil
}

// ServeInto is Serve writing the outcome into a caller-owned completion,
// which hot loops reuse instead of copying a Completion per request. It
// overwrites every field of *c; after an error *c is unspecified.
func (d *Disk) ServeInto(c *Completion, r Request) error {
	if err := r.Validate(d.layout.TotalSectors()); err != nil {
		return err
	}
	if d.failed {
		return fmt.Errorf("request %d: %w (at %v)", r.ID, ErrDiskFailed, d.failedAt)
	}
	start := r.Arrival
	if d.ready > start {
		start = d.ready
	}
	// Cleared, then filled in place: a composite literal would be built on
	// the stack and copied into *c.
	*c = Completion{}
	c.Request = r
	c.Start = start
	c.Parts.Queue = start - r.Arrival
	c.Parts.Overhead = d.cfg.Overhead
	t := start + d.cfg.Overhead

	if !r.Write && d.cache.lookup(r.LBN, r.Sectors, t) {
		// Cache hit: only the bus transfer remains.
		bus := time.Duration(float64(r.Sectors*units.SectorBytes) /
			d.busBytesPerSec * float64(time.Second))
		c.Parts.Transfer = bus
		c.CacheHit = true
		c.Finish = t + bus
		d.ready = c.Finish
		d.served++
		if d.ins != nil {
			d.ins.record(c, -1)
		}
		return nil
	}

	loc, err := d.layout.Locate(r.LBN)
	if err != nil {
		return err
	}

	// Seek.
	seekT := d.seek.SeekTime(loc.Cylinder - d.headCyl)
	c.Parts.Seek = seekT
	t += seekT

	// Rotational latency to the first sector.
	zi := loc.Cylinder / d.cylsPerZone
	period := d.rev
	angleNow := frac(float64(t) / d.revF)
	angleTarget := float64(loc.Sector) / d.zoneSPT[zi].sptF
	wait := angleTarget - angleNow
	if wait < 0 {
		wait++
	}
	rot := time.Duration(wait * d.revF)
	c.Parts.Rotation = rot
	t += rot

	// Transfer, walking track and cylinder boundaries.
	transfer, lastCyl := d.transferTime(loc, r.Sectors)
	c.Parts.Transfer = transfer
	t += transfer

	// Sectors already on the grown-defect list live in the spare area:
	// charge the relocation round-trip to fetch them.
	if d.touchesRemap(r.LBN, r.Sectors) {
		reloc := d.remapPenalty(lastCyl)
		c.Parts.Seek += reloc
		c.Remapped = true
		t += reloc
	}

	// Injected faults: off-track retries, unrecoverable sectors (remapped
	// to spares), or whole-disk failure.
	if d.cfg.Faults != nil {
		var err error
		t, err = d.applyFaults(d.cfg.Faults.Access(start, r), r, c, t, lastCyl, period)
		if err != nil {
			d.headCyl = lastCyl
			d.ready = t
			return err
		}
	} else if d.cfg.RetryProb != nil {
		// Deprecated single-retry path, kept for existing callers.
		if p := d.cfg.RetryProb(start); p > 0 && d.rand() < p {
			c.Parts.Rotation += period
			c.Retried = true
			c.Retries++
			t += period
			d.retries++
		}
	}

	c.Finish = t
	d.headCyl = lastCyl
	d.ready = t
	d.served++
	if d.ins != nil {
		d.ins.record(c, zi)
	}

	if r.Write {
		d.cache.invalidate(r.LBN, r.Sectors)
	} else {
		d.cache.fill(r.LBN, r.Sectors, d.layout.TotalSectors(), t)
	}
	return nil
}

// transferTime walks the request across tracks, charging media time per
// sector and a head-switch penalty per boundary; it returns the total time
// and the final cylinder. The walk reads the zoneSPT table instead of
// resolving the zone per track, and full tracks charge the cached
// revolution directly (spt/spt*rev is exactly rev — the same bits the
// division produced).
func (d *Disk) transferTime(loc capacity.Location, sectors int) (time.Duration, int) {
	var total time.Duration
	cyl, surf, sec := loc.Cylinder, loc.Surface, loc.Sector
	remaining := sectors
	for remaining > 0 {
		if cyl >= d.layout.Cylinders { // request ran off the end; Validate prevents this
			break
		}
		zr := d.zoneSPT[cyl/d.cylsPerZone]
		onTrack := zr.spt - sec
		if onTrack > remaining {
			onTrack = remaining
		}
		if onTrack == zr.spt {
			total += d.rev
		} else {
			total += time.Duration(float64(onTrack) / zr.sptF * d.revF)
		}
		remaining -= onTrack
		if remaining == 0 {
			break
		}
		// Advance to the next track: next surface, else next cylinder.
		total += d.cfg.HeadSwitch
		sec = 0
		surf++
		if surf >= d.layout.Surfaces {
			surf = 0
			cyl++
		}
	}
	return total, cyl
}

// stableSortByArrival sorts requests by arrival, preserving input order for
// ties (the per-disk ordering the batch path has always used).
func stableSortByArrival(reqs []Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
}

// simulateQueued services an arrival-sorted batch under the reordering
// disciplines: among requests that have arrived by the disk's ready time,
// pick by the discipline; if none have arrived, jump to the next arrival.
func (d *Disk) simulateQueued(sorted []Request) ([]Completion, error) {
	out := make([]Completion, 0, len(sorted))
	pending := make([]Request, 0, 64)
	i := 0
	now := time.Duration(0)
	sweepUp := true // LOOK direction
	for i < len(sorted) || len(pending) > 0 {
		for i < len(sorted) && sorted[i].Arrival <= now {
			pending = append(pending, sorted[i])
			i++
		}
		d.ins.noteQueueDepth(len(pending))
		if len(pending) == 0 {
			now = sorted[i].Arrival
			continue
		}
		var best int
		if d.cfg.Scheduler == LOOK {
			best, sweepUp = d.lookPick(pending, sweepUp)
		} else {
			best = 0
			bestCost := d.positionCost(pending[0], now)
			for j := 1; j < len(pending); j++ {
				if cost := d.positionCost(pending[j], now); cost < bestCost {
					best, bestCost = j, cost
				}
			}
		}
		r := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		c, err := d.Serve(r)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if c.Finish > now {
			now = c.Finish
		}
	}
	return out, nil
}

// lookPick selects the next request under the elevator discipline: the
// nearest pending cylinder at or beyond the head in the sweep direction,
// reversing when the direction is exhausted. It returns the chosen index and
// the (possibly flipped) direction.
func (d *Disk) lookPick(pending []Request, sweepUp bool) (int, bool) {
	pick := func(up bool) (int, bool) {
		best := -1
		var bestCyl int
		for j, r := range pending {
			loc, err := d.layout.Locate(r.LBN)
			if err != nil {
				continue
			}
			cyl := loc.Cylinder
			if up && cyl >= d.headCyl {
				if best < 0 || cyl < bestCyl {
					best, bestCyl = j, cyl
				}
			} else if !up && cyl <= d.headCyl {
				if best < 0 || cyl > bestCyl {
					best, bestCyl = j, cyl
				}
			}
		}
		return best, best >= 0
	}
	if idx, ok := pick(sweepUp); ok {
		return idx, sweepUp
	}
	if idx, ok := pick(!sweepUp); ok {
		return idx, !sweepUp
	}
	return 0, sweepUp // unlocatable requests only; serve in order
}

// positionCost estimates the positioning cost of a request from the current
// head position, per the configured discipline.
func (d *Disk) positionCost(r Request, now time.Duration) float64 {
	loc, err := d.layout.Locate(r.LBN)
	if err != nil {
		return math.Inf(1)
	}
	seekT := d.seek.SeekTime(loc.Cylinder - d.headCyl)
	if d.cfg.Scheduler == SSTF {
		return float64(seekT)
	}
	// SPTF: seek plus rotational latency estimated at now+overhead+seek.
	t := now + d.cfg.Overhead + seekT
	angleNow := frac(float64(t) / d.revF)
	angleTarget := float64(loc.Sector) / d.zoneSPT[loc.Cylinder/d.cylsPerZone].sptF
	wait := angleTarget - angleNow
	if wait < 0 {
		wait++
	}
	return float64(seekT) + wait*d.revF
}
