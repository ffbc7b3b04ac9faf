package raid

import (
	"testing"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/geometry"
)

// fuzzVolume builds a small volume for Explode fuzzing from a testing.TB,
// so FuzzExplode's seed corpus (which runs under plain go test) and unit
// tests share it. Its 29-zone members hold 37,938,028 sectors, 12 past a
// whole number of 16-sector stripe units, so striped volumes end in a
// partial stripe row.
func fuzzVolume(tb testing.TB, level Level, n int) *Volume {
	tb.Helper()
	layout, err := capacity.New(capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 3.3, Platters: 1, FormFactor: geometry.FormFactor35},
		BPI:      456000,
		TPI:      45000,
		Zones:    29,
	})
	if err != nil {
		tb.Fatal(err)
	}
	disks := make([]*disksim.Disk, n)
	for i := range disks {
		d, err := disksim.New(disksim.Config{Layout: layout, RPM: 10000})
		if err != nil {
			tb.Fatal(err)
		}
		disks[i] = d
	}
	v, err := New(level, disks, DefaultStripeUnit)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// FuzzExplode drives Volume.Explode (and therefore mapStriped/mapConcat/
// mapMirrored) through offset/size edge cases: zero-length and negative
// requests, stripe-boundary straddles, the last stripe, and past-capacity
// ranges must all error cleanly or fan out consistently — never panic.
func FuzzExplode(f *testing.F) {
	vols := []*Volume{
		fuzzVolume(f, JBOD, 2),
		fuzzVolume(f, RAID0, 4),
		fuzzVolume(f, RAID5, 4),
		fuzzVolume(f, RAID1, 2),
	}
	cap0 := vols[1].Capacity()
	cap5 := vols[2].Capacity()
	unit := vols[1].stripeUnit

	// Seed corpus: the edge cases the checklist names.
	f.Add(int64(0), 0, false)                // zero-length
	f.Add(int64(0), 1, false)                // first sector
	f.Add(int64(-1), 8, false)               // negative offset
	f.Add(unit-1, 2, false)                  // stripe-boundary straddle
	f.Add(unit-1, 2, true)                   // straddling RMW write
	f.Add(cap0-int64(unit), int(unit), true) // last stripe
	f.Add(cap0-1, 1, false)                  // last sector
	f.Add(cap0-40, 40, false)                // across the partial last row
	f.Add(cap5-40, 40, true)                 // RAID-5 RMW across it
	f.Add(cap0-1, 2, false)                  // runs past capacity
	f.Add(cap0, 1, false)                    // starts past capacity
	f.Add(int64(0), 1<<20, false)            // huge
	f.Add(unit*3+unit/2, int(unit)*5, true)  // misaligned multi-stripe write

	f.Fuzz(func(t *testing.T, block int64, sectors int, write bool) {
		r := Request{ID: 1, Block: block, Sectors: sectors, Write: write}
		for _, v := range vols {
			subs, err := v.Explode(r)
			inRange := sectors > 0 && block >= 0 && block+int64(sectors) <= v.Capacity()
			// Guard the overflow case: block+sectors can wrap for huge
			// inputs; the volume must reject those too.
			if block > 0 && block+int64(sectors) < block {
				inRange = false
			}
			if !inRange {
				if err == nil {
					t.Fatalf("%v: out-of-range request [%d,+%d) accepted", v.Level(), block, sectors)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: in-range request [%d,+%d) rejected: %v", v.Level(), block, sectors, err)
			}
			if len(subs) == 0 {
				t.Fatalf("%v: in-range request fanned out to nothing", v.Level())
			}
			var dataSectors int64
			for _, sr := range subs {
				if sr.Disk < 0 || sr.Disk >= len(v.Disks()) {
					t.Fatalf("%v: sub-request on nonexistent disk %d", v.Level(), sr.Disk)
				}
				if sr.Request.Sectors <= 0 {
					t.Fatalf("%v: empty sub-request %+v", v.Level(), sr.Request)
				}
				if sr.Request.LBN < 0 || sr.Request.LBN+int64(sr.Request.Sectors) > v.perDisk {
					t.Fatalf("%v: sub-request [%d,+%d) outside member [0,%d)",
						v.Level(), sr.Request.LBN, sr.Request.Sectors, v.perDisk)
				}
				if sr.Request.Write == write || (v.Level() == RAID5 && write) {
					// Count data-carrying subs: for reads every sub is
					// data; for writes, the write subs (RAID-5 RMW adds a
					// parity write per unit, excluded below).
					dataSectors += int64(sr.Request.Sectors)
				}
			}
			switch {
			case !write && v.Level() != RAID5 && v.Level() != RAID1:
				if dataSectors != int64(sectors) {
					t.Fatalf("%v: read covers %d of %d sectors", v.Level(), dataSectors, sectors)
				}
			case !write && v.Level() == RAID1:
				if dataSectors != int64(sectors) {
					t.Fatalf("RAID-1 read covers %d of %d sectors", dataSectors, sectors)
				}
			case write && v.Level() == RAID1:
				if dataSectors != 2*int64(sectors) {
					t.Fatalf("RAID-1 write mirrors %d sectors, want %d", dataSectors, 2*int64(sectors))
				}
			}
		}
	})
}
