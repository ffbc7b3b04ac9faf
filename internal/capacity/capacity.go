// Package capacity implements the paper's capacity model (section 3.1):
// linear density (BPI) and track density (TPI) determine the cylinder count
// and per-track raw bit capacity; Zoned Bit Recording (ZBR), embedded-servo
// patterns and error-correcting codes then derate the raw capacity to the
// usable sector count.
//
// Interpretation notes. The paper's printed derated-capacity equation is
// dimensionally inconsistent (a typesetting casualty). We implement the
// physically sensible reading: servo overhead is carried per sector
// (C_servo extra bits beside each 4096-bit payload) and ECC consumes a
// fraction of the remaining track capacity — 10% below 1 Tb/in^2 and 35% at
// terabit densities. So a track whose minimum-perimeter zone capacity is
// C_tzmin raw bits holds
//
//	sectorsPerTrack = floor(C_tzmin * (1 - eccFraction) / (4096 + C_servo))
//
// full sectors. The fractional ECC reading (rather than the "416/1440
// bits/sector" the prose quotes, which are the same costs expressed against
// the payload) is the one the paper's own arithmetic uses: its Table 3
// IDR_density drops by exactly (1-0.35)/(1-0.10) = 0.722 across the 2010
// terabit transition. This model reproduces the paper's Table 1 "Model Cap."
// and "Model IDR" columns to within ~1-2% (capacities in binary GB).
package capacity

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/geometry"
	"repro/internal/units"
)

// Overhead constants from the paper.
const (
	// ECCFractionSubTerabit is the Reed-Solomon capacity share for drives
	// below 1 Tb/in^2 areal density (416 bits per 4096-bit payload ~ 10%).
	ECCFractionSubTerabit = 0.10

	// ECCFractionTerabit is the share at terabit areal densities (1440 bits
	// per payload ~ 35%), per Wood's feasibility study.
	ECCFractionTerabit = 0.35

	// DefaultStrokeEfficiency is the fraction of the radial band usable for
	// data tracks (the rest is recalibration, spares, landing zone...).
	DefaultStrokeEfficiency = 2.0 / 3.0

	// DefaultZones is the zone count the paper assumes for the Table 1
	// validation drives. The roadmap (Table 3 onwards) uses 50.
	DefaultZones = 30
)

// Config specifies the recording parameters of a drive.
type Config struct {
	// Geometry fixes the platter size and count.
	Geometry geometry.Drive

	// BPI is the linear density along a track.
	BPI units.BPI

	// TPI is the radial track density.
	TPI units.TPI

	// Zones is the ZBR zone count; 0 means DefaultZones.
	Zones int

	// StrokeEfficiency is the usable fraction of the radial band;
	// 0 means DefaultStrokeEfficiency.
	StrokeEfficiency float64
}

func (c Config) zones() int {
	if c.Zones == 0 {
		return DefaultZones
	}
	return c.Zones
}

func (c Config) strokeEfficiency() float64 {
	if c.StrokeEfficiency == 0 {
		return DefaultStrokeEfficiency
	}
	return c.StrokeEfficiency
}

// Zone describes one ZBR zone. Zone 0 is the outermost.
type Zone struct {
	// Index is the zone number, 0 = outermost.
	Index int

	// FirstCylinder and LastCylinder bound the zone (inclusive);
	// cylinder 0 is the outermost track.
	FirstCylinder, LastCylinder int

	// Tracks is the number of tracks per surface in the zone.
	Tracks int

	// MinTrackBits is the raw bit capacity of the zone's smallest
	// (innermost) track, which ZBR allocates to every track in the zone.
	MinTrackBits int64

	// SectorsPerTrack is the derated sector count per track after servo
	// and ECC overheads.
	SectorsPerTrack int

	// FirstLBN is the first logical block number mapped into this zone
	// (cylinder-major ordering across all surfaces).
	FirstLBN int64
}

// Layout is the fully derived recording layout of a drive.
type Layout struct {
	cfg Config

	// Cylinders is the number of data tracks per surface actually used
	// (equal-sized zones; any remainder tracks are treated as reserve).
	Cylinders int

	// Surfaces is twice the platter count.
	Surfaces int

	// ServoBits is the per-sector embedded-servo overhead:
	// ceil(log2 cylinders) Gray-code track-id bits.
	ServoBits int

	// ECCFraction is the share of track capacity consumed by
	// error-correcting codes.
	ECCFraction float64

	// ReserveTracks is the number of tracks per surface the equal-zone
	// split leaves unmapped at the inner edge; they back the grown-defect
	// spare pool (see SpareSectors).
	ReserveTracks int

	// Zones is the zone table, outermost first.
	Zones []Zone

	totalSectors int64

	// idx is Locate's zone index, built on first use: roadmap sweeps and
	// candidate-layout searches derive many layouts that never map an LBN.
	idxOnce sync.Once
	idx     zoneIndex
}

// zoneIndex finds the zone holding an LBN in O(1). Bucket b covers LBNs
// [b<<shift, (b+1)<<shift). No bucket is longer than the smallest non-empty
// zone, so at most one zone boundary falls inside a bucket, and one
// comparison against it picks the zone.
type zoneIndex struct {
	shift  uint
	bucket []zoneBucket
}

// zoneBucket resolves the LBNs of one bucket: those below next lie in zone
// lo, the rest in zone hi. Each is the highest-numbered zone starting at or
// before the LBN, which skips empty zones (an empty zone shares its FirstLBN
// with the next one).
type zoneBucket struct {
	next   int64
	lo, hi int32
}

// buildIndex fills l.idx. Locate calls it only for layouts with sectors.
func (l *Layout) buildIndex() {
	// zoneAt returns the highest zone starting at or before lbn, scanning
	// up from zone z.
	zoneAt := func(z int, lbn int64) int {
		for z+1 < len(l.Zones) && l.Zones[z+1].FirstLBN <= lbn {
			z++
		}
		return z
	}
	minZone := l.totalSectors
	for i, z := range l.Zones {
		end := l.totalSectors
		if i+1 < len(l.Zones) {
			end = l.Zones[i+1].FirstLBN
		}
		if size := end - z.FirstLBN; size > 0 && size < minZone {
			minZone = size
		}
	}
	shift := uint(bits.Len64(uint64(minZone)) - 1) // 1<<shift <= minZone
	buckets := make([]zoneBucket, (l.totalSectors-1)>>shift+1)
	lo := 0
	for b := range buckets {
		lo = zoneAt(lo, int64(b)<<shift)
		hi, next := lo, l.totalSectors
		if lo+1 < len(l.Zones) {
			next = l.Zones[lo+1].FirstLBN
			hi = zoneAt(lo+1, next)
		}
		buckets[b] = zoneBucket{next: next, lo: int32(lo), hi: int32(hi)}
	}
	l.idx = zoneIndex{shift: shift, bucket: buckets}
}

// New derives the layout for a configuration.
func New(cfg Config) (*Layout, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.BPI <= 0 || cfg.TPI <= 0 {
		return nil, fmt.Errorf("capacity: non-positive density BPI=%v TPI=%v", cfg.BPI, cfg.TPI)
	}
	nz := cfg.zones()
	if nz < 1 {
		return nil, fmt.Errorf("capacity: zone count %d < 1", nz)
	}
	eta := cfg.strokeEfficiency()
	if eta <= 0 || eta > 1 {
		return nil, fmt.Errorf("capacity: stroke efficiency %.3f outside (0,1]", eta)
	}

	ro := cfg.Geometry.OuterRadius()
	ri := cfg.Geometry.InnerRadius()
	ncylin := int(eta * float64(ro-ri) * float64(cfg.TPI))
	if ncylin < 2 {
		return nil, fmt.Errorf("capacity: only %d cylinders; density too low for geometry", ncylin)
	}
	if ncylin/nz < 1 {
		return nil, fmt.Errorf("capacity: %d cylinders cannot fill %d zones", ncylin, nz)
	}

	l := &Layout{
		cfg:      cfg,
		Surfaces: 2 * cfg.Geometry.Platters,
	}
	tracksPerZone := ncylin / nz
	l.Cylinders = tracksPerZone * nz // equal zones; remainder is reserve
	l.ReserveTracks = ncylin - l.Cylinders
	l.ServoBits = int(math.Ceil(math.Log2(float64(l.Cylinders))))
	if units.ArealDensity(cfg.BPI, cfg.TPI) >= units.TerabitPerSqInch {
		l.ECCFraction = ECCFractionTerabit
	} else {
		l.ECCFraction = ECCFractionSubTerabit
	}

	overhead := float64(units.SectorDataBits + l.ServoBits)
	usable := 1 - l.ECCFraction
	l.Zones = make([]Zone, nz)
	var lbn int64
	for z := 0; z < nz; z++ {
		first := z * tracksPerZone
		last := (z+1)*tracksPerZone - 1
		minBits := int64(l.TrackPerimeter(last) * float64(cfg.BPI))
		spt := int(float64(minBits) * usable / overhead)
		l.Zones[z] = Zone{
			Index:           z,
			FirstCylinder:   first,
			LastCylinder:    last,
			Tracks:          tracksPerZone,
			MinTrackBits:    minBits,
			SectorsPerTrack: spt,
			FirstLBN:        lbn,
		}
		lbn += int64(tracksPerZone) * int64(l.Surfaces) * int64(spt)
	}
	l.totalSectors = lbn
	return l, nil
}

// Config returns the configuration the layout was derived from.
func (l *Layout) Config() Config { return l.cfg }

// TrackPerimeter returns the perimeter in inches of cylinder j
// (equation 1 of the paper; j = 0 is the outermost track).
func (l *Layout) TrackPerimeter(j int) float64 {
	return 2 * math.Pi * l.TrackRadius(j)
}

// TrackRadius returns the radius in inches of cylinder j. Tracks are evenly
// spaced between the inner and outer radii.
func (l *Layout) TrackRadius(j int) float64 {
	ro := float64(l.cfg.Geometry.OuterRadius())
	ri := float64(l.cfg.Geometry.InnerRadius())
	n := l.Cylinders
	return ri + (ro-ri)*float64(n-j-1)/float64(n-1)
}

// RawCapacity returns C_max: the undeveloped areal capacity of the stroke-
// efficient band, before ZBR/servo/ECC derating.
func (l *Layout) RawCapacity() units.Bytes {
	ro := float64(l.cfg.Geometry.OuterRadius())
	ri := float64(l.cfg.Geometry.InnerRadius())
	bits := l.cfg.strokeEfficiency() * float64(l.Surfaces) *
		math.Pi * (ro*ro - ri*ri) *
		units.ArealDensity(l.cfg.BPI, l.cfg.TPI)
	return units.Bytes(bits / 8)
}

// ZBRCapacity returns the capacity after zoning alone (every track in a zone
// holds its minimum-perimeter track's sectors), before servo/ECC derating.
func (l *Layout) ZBRCapacity() units.Bytes {
	var sectors int64
	for _, z := range l.Zones {
		sectors += int64(z.Tracks) * (z.MinTrackBits / units.SectorDataBits)
	}
	sectors *= int64(l.Surfaces)
	return units.FromSectors(sectors)
}

// DeratedCapacity returns the final usable capacity after ZBR, servo and ECC
// overheads — the paper's C_actual.
func (l *Layout) DeratedCapacity() units.Bytes {
	return units.FromSectors(l.totalSectors)
}

// TotalSectors returns the number of addressable 512-byte sectors.
func (l *Layout) TotalSectors() int64 { return l.totalSectors }

// SpareSectors returns the grown-defect spare pool: the reserve tracks the
// equal-zone split leaves unmapped (at least one track per surface, as every
// production drive carries a reassignment area), at the innermost zone's
// per-track sector count. Sectors declared unrecoverable in service are
// remapped here; a drive that exhausts the pool is failed.
func (l *Layout) SpareSectors() int64 {
	reserve := l.ReserveTracks
	if reserve < 1 {
		reserve = 1
	}
	inner := l.Zones[len(l.Zones)-1].SectorsPerTrack
	return int64(reserve) * int64(l.Surfaces) * int64(inner)
}

// SectorsPerTrackZone0 returns n_tz0, the derated sectors per track in the
// outermost zone — the quantity the IDR formula (equation 4) needs.
func (l *Layout) SectorsPerTrackZone0() int { return l.Zones[0].SectorsPerTrack }

// ZoneOfCylinder returns the zone containing cylinder c.
func (l *Layout) ZoneOfCylinder(c int) *Zone {
	if c < 0 || c >= l.Cylinders {
		return nil
	}
	tracksPerZone := l.Cylinders / len(l.Zones)
	return &l.Zones[c/tracksPerZone]
}

// Location is a physical sector address.
type Location struct {
	Cylinder int
	Surface  int
	Sector   int // sector index within the track
}

// Locate maps a logical block number to its physical location using
// cylinder-major ordering: LBNs fill all surfaces of a cylinder before moving
// one cylinder inward. It returns an error for out-of-range LBNs.
func (l *Layout) Locate(lbn int64) (Location, error) {
	if lbn < 0 || lbn >= l.totalSectors {
		return Location{}, fmt.Errorf("capacity: LBN %d outside [0,%d)", lbn, l.totalSectors)
	}
	l.idxOnce.Do(l.buildIndex)
	bk := &l.idx.bucket[lbn>>l.idx.shift]
	zi := bk.lo
	if lbn >= bk.next {
		zi = bk.hi
	}
	z := &l.Zones[zi]
	rel := lbn - z.FirstLBN
	perCyl := int64(l.Surfaces) * int64(z.SectorsPerTrack)
	cyl := z.FirstCylinder + int(rel/perCyl)
	rem := rel % perCyl
	return Location{
		Cylinder: cyl,
		Surface:  int(rem / int64(z.SectorsPerTrack)),
		Sector:   int(rem % int64(z.SectorsPerTrack)),
	}, nil
}

// LBNOf is the inverse of Locate.
func (l *Layout) LBNOf(loc Location) (int64, error) {
	z := l.ZoneOfCylinder(loc.Cylinder)
	if z == nil {
		return 0, fmt.Errorf("capacity: cylinder %d outside [0,%d)", loc.Cylinder, l.Cylinders)
	}
	if loc.Surface < 0 || loc.Surface >= l.Surfaces {
		return 0, fmt.Errorf("capacity: surface %d outside [0,%d)", loc.Surface, l.Surfaces)
	}
	if loc.Sector < 0 || loc.Sector >= z.SectorsPerTrack {
		return 0, fmt.Errorf("capacity: sector %d outside [0,%d) in zone %d",
			loc.Sector, z.SectorsPerTrack, z.Index)
	}
	perCyl := int64(l.Surfaces) * int64(z.SectorsPerTrack)
	lbn := z.FirstLBN +
		int64(loc.Cylinder-z.FirstCylinder)*perCyl +
		int64(loc.Surface)*int64(z.SectorsPerTrack) +
		int64(loc.Sector)
	return lbn, nil
}

// OverheadBreakdown reports how the raw capacity is spent, for the ablation
// experiment (X2 in DESIGN.md).
type OverheadBreakdown struct {
	Raw     units.Bytes // areal capacity of the data band
	ZBR     units.Bytes // after zoning
	Derated units.Bytes // after zoning + servo + ECC

	// Fractions of raw capacity lost to each mechanism.
	ZBRLoss   float64
	ServoLoss float64
	ECCLoss   float64
}

// Breakdown computes the overhead decomposition.
func (l *Layout) Breakdown() OverheadBreakdown {
	raw := l.RawCapacity()
	zbr := l.ZBRCapacity()
	der := l.DeratedCapacity()
	b := OverheadBreakdown{Raw: raw, ZBR: zbr, Derated: der}
	if raw > 0 {
		zbrFrac := float64(zbr) / float64(raw)
		b.ZBRLoss = 1 - zbrFrac
		// ECC takes its fraction off the zoned capacity; servo then costs
		// its per-sector share of what remains.
		b.ECCLoss = zbrFrac * l.ECCFraction
		b.ServoLoss = zbrFrac * (1 - l.ECCFraction) *
			float64(l.ServoBits) / float64(units.SectorDataBits+l.ServoBits)
	}
	return b
}
