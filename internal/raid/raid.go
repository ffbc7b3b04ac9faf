// Package raid stripes a logical volume across several simulated disks:
// RAID-0, RAID-5 (left-symmetric rotating parity with read-modify-write), and
// JBOD concatenation for the multi-disk non-striped workloads in the paper's
// Figure 4 study. The paper's RAID systems use RAID-5 with a stripe unit of
// 16 512-byte blocks.
package raid

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/disksim"
)

// Level selects the volume organisation.
type Level int

// Supported organisations.
const (
	// JBOD concatenates the disks' address spaces.
	JBOD Level = iota
	// RAID0 stripes without redundancy.
	RAID0
	// RAID5 stripes with left-symmetric rotating parity; small writes pay
	// the read-modify-write penalty on the data and parity disks.
	RAID5
	// RAID1 mirrors two disks: writes go to both, reads alternate between
	// them. The paper's section 5.4 proposes steering mirrored reads for
	// thermal cool-down; the DTM package implements that policy on top of
	// this level.
	RAID1
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case JBOD:
		return "JBOD"
	case RAID0:
		return "RAID-0"
	case RAID5:
		return "RAID-5"
	case RAID1:
		return "RAID-1"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// DefaultStripeUnit is the paper's stripe size: 16 512-byte blocks.
const DefaultStripeUnit = 16

// Request is one volume-level I/O.
type Request struct {
	ID      int64
	Arrival time.Duration
	Block   int64 // volume LBN
	Sectors int
	Write   bool
}

// Completion is the volume-level outcome: the slowest constituent disk
// request determines the finish time.
//
// Completion deliberately shares its latency vocabulary with disksim: the
// Parts field is disksim.Breakdown itself (not a parallel struct), and
// Response is defined by the same Finish-minus-Arrival rule, so the two
// layers cannot drift apart. integration's equality tests pin this.
type Completion struct {
	Request Request
	Finish  time.Duration
	// SubRequests is how many disk I/Os the request fanned out to.
	SubRequests int
	// CacheHits counts constituent disk requests served from cache.
	CacheHits int
	// Parts is the latency breakdown of the finish-determining (slowest)
	// constituent disk request; SlowestDisk is its member index. Ties go
	// to the lowest member index. Under write-back, Parts still describes
	// the slowest destage I/O even though Finish is the cache ack.
	Parts       disksim.Breakdown
	SlowestDisk int
	// Degraded marks a request served while a member was failed.
	Degraded bool
	// Reconstructed counts sectors rebuilt on the fly from the survivors
	// (RAID-5 degraded reads; zero elsewhere).
	Reconstructed int
	// Exposed marks a write committed without full redundancy (parity or
	// mirror copy lost until the rebuild completes).
	Exposed bool
}

// Response returns the end-to-end volume response time.
func (c Completion) Response() time.Duration { return c.Finish - c.Request.Arrival }

// Volume is a set of disks under one organisation. It is not safe for
// concurrent use.
type Volume struct {
	disks      []*disksim.Disk
	ins        *instruments // optional metric handles; nil = free
	level      Level
	stripeUnit int64
	perDisk    int64 // addressable sectors per member disk

	// tailStart is the first volume block of the final stripe row when
	// perDisk is not a whole number of stripe units; that row's units hold
	// only the perDisk%stripeUnit sectors the members have left. It equals
	// the striped capacity when there is no partial row.
	tailStart int64

	writeBack time.Duration
	readRR    int // RAID-1 read round-robin cursor

	// subScratch backs mapRequest's result slice, reused from request to
	// request (the Volume is documented not safe for concurrent use). The
	// returned fan-out is valid only until the next mapRequest call; every
	// caller either finishes with it before re-mapping (Serve,
	// SimulateBatch's per-disk copy, the degraded retry loop) or copies out
	// (Explode). After the first few requests the buffer has grown to the
	// workload's widest fan-out and mapping allocates nothing.
	subScratch []sub

	// subDone receives each member disk's completion in turn while a
	// request is served; only its finish, breakdown and cache flag are
	// read before the next sub-request overwrites it.
	subDone disksim.Completion

	// Degraded-mode state (see recovery.go).
	failed   []bool
	failedAt []time.Duration
}

// SetWriteBack gives the array controller a battery-backed write cache:
// host writes complete after the given latency while the destage I/Os still
// occupy the member disks. Zero restores write-through. TPC-C audited
// configurations of the era universally ran such controllers.
func (v *Volume) SetWriteBack(latency time.Duration) { v.writeBack = latency }

// New assembles a volume. All member disks must have the same capacity.
func New(level Level, disks []*disksim.Disk, stripeUnit int) (*Volume, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("raid: no disks")
	}
	if level == RAID5 && len(disks) < 3 {
		return nil, fmt.Errorf("raid: RAID-5 needs >= 3 disks, have %d", len(disks))
	}
	if level == RAID1 && len(disks) != 2 {
		return nil, fmt.Errorf("raid: RAID-1 needs exactly 2 disks, have %d", len(disks))
	}
	if stripeUnit == 0 {
		stripeUnit = DefaultStripeUnit
	}
	if stripeUnit < 0 {
		return nil, fmt.Errorf("raid: negative stripe unit")
	}
	per := disks[0].Layout().TotalSectors()
	for i, d := range disks {
		if d.Layout().TotalSectors() != per {
			return nil, fmt.Errorf("raid: disk %d capacity %d differs from disk 0's %d",
				i, d.Layout().TotalSectors(), per)
		}
	}
	dataDisks := int64(len(disks))
	if level == RAID5 {
		dataDisks--
	}
	su := int64(stripeUnit)
	// Copy the slice: the recovery engine swaps spares into members in
	// place, which must not alias the caller's slice.
	return &Volume{
		disks:      append([]*disksim.Disk(nil), disks...),
		level:      level,
		stripeUnit: su,
		perDisk:    per,
		tailStart:  per / su * su * dataDisks,
		failed:     make([]bool, len(disks)),
		failedAt:   make([]time.Duration, len(disks)),
	}, nil
}

// Disks returns the member disks.
func (v *Volume) Disks() []*disksim.Disk { return v.disks }

// Level returns the volume organisation.
func (v *Volume) Level() Level { return v.level }

// Capacity returns the volume's addressable sectors (parity excluded).
func (v *Volume) Capacity() int64 {
	n := int64(len(v.disks))
	switch v.level {
	case RAID5:
		return (n - 1) * v.perDisk
	case RAID1:
		return v.perDisk
	default:
		return n * v.perDisk
	}
}

// sub is one disk-level constituent of a volume request.
type sub struct {
	disk int
	req  disksim.Request
}

// SubRequest is the exported view of a volume request's disk-level
// constituent, for analysis tools.
type SubRequest struct {
	Disk    int
	Request disksim.Request
}

// Explode returns the disk-level I/Os a volume request fans out to, without
// simulating them.
func (v *Volume) Explode(r Request) ([]SubRequest, error) {
	subs, err := v.mapRequest(r)
	if err != nil {
		return nil, err
	}
	out := make([]SubRequest, len(subs))
	for i, s := range subs {
		out[i] = SubRequest{Disk: s.disk, Request: s.req}
	}
	return out, nil
}

// mapRequest fans a volume request out to disk requests. RAID-5 writes add
// the read-modify-write I/Os: old-data and old-parity reads precede the data
// and parity writes (the same-disk FCFS queue serialises read before write;
// the cross-disk read-before-write dependency is approximated away, which
// errs slightly optimistic on parity-write start times).
func (v *Volume) mapRequest(r Request) ([]sub, error) {
	if r.Sectors <= 0 {
		return nil, fmt.Errorf("raid: request %d has %d sectors", r.ID, r.Sectors)
	}
	// Written subtraction-side to stay overflow-safe for huge Block values.
	if r.Block < 0 || int64(r.Sectors) > v.Capacity()-r.Block {
		return nil, fmt.Errorf("raid: request %d range [%d,%d) outside volume [0,%d)",
			r.ID, r.Block, r.Block+int64(r.Sectors), v.Capacity())
	}
	switch v.level {
	case JBOD:
		return v.mapConcat(r), nil
	case RAID0:
		return v.mapStriped(r, false), nil
	case RAID5:
		return v.mapStriped(r, true), nil
	case RAID1:
		return v.mapMirrored(r), nil
	default:
		return nil, fmt.Errorf("raid: unknown level %v", v.level)
	}
}

// mapMirrored fans RAID-1 requests: writes to both members, reads to the
// alternating member (round-robin read balancing).
func (v *Volume) mapMirrored(r Request) []sub {
	req := disksim.Request{
		ID: r.ID, Arrival: r.Arrival, LBN: r.Block, Sectors: r.Sectors, Write: r.Write,
	}
	subs := v.subScratch[:0]
	if r.Write {
		subs = append(subs, sub{0, req}, sub{1, req})
	} else {
		v.readRR++
		subs = append(subs, sub{v.readRR % 2, req})
	}
	v.subScratch = subs
	return subs
}

func (v *Volume) mapConcat(r Request) []sub {
	subs := v.subScratch[:0]
	block := r.Block
	remaining := int64(r.Sectors)
	for remaining > 0 {
		disk := int(block / v.perDisk)
		off := block % v.perDisk
		n := v.perDisk - off
		if n > remaining {
			n = remaining
		}
		subs = append(subs, sub{disk, disksim.Request{
			ID: r.ID, Arrival: r.Arrival, LBN: off, Sectors: int(n), Write: r.Write,
		}})
		block += n
		remaining -= n
	}
	v.subScratch = subs
	return subs
}

// stripeLoc maps a volume stripe-unit index to its (disk, disk-LBN-base) and,
// for RAID-5, the parity disk of its row.
func (v *Volume) stripeLoc(unit int64, raid5 bool) (dataDisk int, diskBase int64, parityDisk int) {
	n := int64(len(v.disks))
	if !raid5 {
		return int(unit % n), (unit / n) * v.stripeUnit, -1
	}
	dataPerRow := n - 1
	row := unit / dataPerRow
	idx := unit % dataPerRow
	p := int(n - 1 - row%n) // left-symmetric parity rotation
	d := (p + 1 + int(idx)) % int(n)
	return d, row * v.stripeUnit, p
}

// unitAt returns the stripe unit holding a volume block, the block's offset
// in it and the unit's length: the stripe unit, or the members' leftover
// sectors in a final partial row.
func (v *Volume) unitAt(block int64) (unit, off, size int64) {
	if block < v.tailStart {
		return block / v.stripeUnit, block % v.stripeUnit, v.stripeUnit
	}
	tail := v.perDisk % v.stripeUnit
	rel := block - v.tailStart
	return v.tailStart/v.stripeUnit + rel/tail, rel % tail, tail
}

func (v *Volume) mapStriped(r Request, raid5 bool) []sub {
	subs := v.subScratch[:0]
	block := r.Block
	remaining := int64(r.Sectors)
	for remaining > 0 {
		unit, off, size := v.unitAt(block)
		n := size - off
		if n > remaining {
			n = remaining
		}
		disk, base, parity := v.stripeLoc(unit, raid5)
		lbn := base + off
		if !r.Write || !raid5 {
			subs = append(subs, sub{disk, disksim.Request{
				ID: r.ID, Arrival: r.Arrival, LBN: lbn, Sectors: int(n), Write: r.Write,
			}})
		} else {
			// Read-modify-write: old data, old parity, new data, new parity.
			subs = append(subs,
				sub{disk, disksim.Request{ID: r.ID, Arrival: r.Arrival, LBN: lbn, Sectors: int(n)}},
				sub{disk, disksim.Request{ID: r.ID, Arrival: r.Arrival, LBN: lbn, Sectors: int(n), Write: true}},
				sub{parity, disksim.Request{ID: r.ID, Arrival: r.Arrival, LBN: base + off, Sectors: int(n)}},
				sub{parity, disksim.Request{ID: r.ID, Arrival: r.Arrival, LBN: base + off, Sectors: int(n), Write: true}},
			)
		}
		block += n
		remaining -= n
	}
	v.subScratch = subs
	return subs
}

// SimulateBatch is the whole-trace path: every disk receives its complete
// sub-request queue up front, disk by disk. Simulate routes here for
// volumes whose members use a reordering scheduler (SSTF/SPTF/LOOK), which
// need the whole queue before they can pick; for FCFS volumes it is an
// independent implementation of the same semantics as the streaming path,
// kept (and pinned by the integration equivalence tests) as a cross-check
// of the event engine.
func (v *Volume) SimulateBatch(reqs []Request) ([]Completion, error) {
	perDisk := make([][]disksim.Request, len(v.disks))
	type parent struct {
		req     Request
		subs    int
		finish  time.Duration
		hits    int
		parts   disksim.Breakdown
		slowest int
	}
	parents := make(map[int64]*parent, len(reqs))
	for _, r := range reqs {
		subs, err := v.mapRequest(r)
		if err != nil {
			return nil, err
		}
		p := parents[r.ID]
		if p == nil {
			p = &parent{req: r, slowest: -1}
			parents[r.ID] = p
		}
		p.subs += len(subs)
		for _, s := range subs {
			perDisk[s.disk] = append(perDisk[s.disk], s.req)
		}
	}
	for i, d := range v.disks {
		comps, err := d.Simulate(perDisk[i])
		if err != nil {
			return nil, err
		}
		for _, c := range comps {
			p := parents[c.Request.ID]
			// Same slowest-sub rule as Volume.Serve: max finish, ties to
			// the lowest member index (this scan ascends members, so a
			// strictly-greater test keeps the first).
			if p.slowest < 0 || c.Finish > p.finish {
				p.finish = c.Finish
				p.parts = c.Parts
				p.slowest = i
			}
			if c.CacheHit {
				p.hits++
			}
		}
	}
	out := make([]Completion, 0, len(parents))
	for _, p := range parents {
		finish := p.finish
		if v.writeBack > 0 && p.req.Write {
			finish = p.req.Arrival + v.writeBack
		}
		out = append(out, Completion{
			Request:     p.req,
			Finish:      finish,
			SubRequests: p.subs,
			CacheHits:   p.hits,
			Parts:       p.parts,
			SlowestDisk: p.slowest,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Request.Arrival != out[j].Request.Arrival {
			return out[i].Request.Arrival < out[j].Request.Arrival
		}
		return out[i].Request.ID < out[j].Request.ID
	})
	return out, nil
}
