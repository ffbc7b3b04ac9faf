package capacity

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/units"
)

// FuzzLayout ensures the layout derivation never panics across the
// configuration space, that derived layouts keep their invariants, and that
// Locate agrees with the reference binary search at the fuzzed LBN (taken
// modulo the address space, so out-of-range LBNs are covered too), at
// every zone boundary and at a few seeded random LBNs.
func FuzzLayout(f *testing.F) {
	f.Add(533000.0, 64000.0, uint8(4), uint8(30), int64(0))
	f.Add(270000.0, 20000.0, uint8(1), uint8(50), int64(123456789))
	f.Add(1.0, 1.0, uint8(0), uint8(0), int64(-1))
	f.Add(1.9e6, 540000.0, uint8(1), uint8(50), int64(987654321987))
	// Densities whose capacity overflows int64: raw bytes wrap to MinInt64
	// at 4 platters, the derated capacity goes negative at 7. New must
	// refuse both.
	f.Add(5.1e7, 2.3e11, uint8(4), uint8(0), int64(0))
	f.Add(5.1e7, 2.3e11, uint8(7), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, bpi, tpi float64, platters, zones uint8, lbn int64) {
		cfg := Config{
			Geometry: geometry.Drive{
				PlatterDiameter: 2.6,
				Platters:        int(platters % 8),
				FormFactor:      geometry.FormFactor35,
			},
			BPI:   units.BPI(bpi),
			TPI:   units.TPI(tpi),
			Zones: int(zones),
		}
		l, err := New(cfg)
		if err != nil {
			return
		}
		if l.DeratedCapacity() < 0 || l.DeratedCapacity() > l.RawCapacity() {
			t.Fatalf("capacity ordering violated: derated %v raw %v",
				l.DeratedCapacity(), l.RawCapacity())
		}
		if n := l.TotalSectors() + 2; n > 2 {
			checkLocateAt(t, l, lbn%n-1) // in [-n, n-2]: covers -1 and TotalSectors
		}
		CheckLocate(t, l, rand.New(rand.NewSource(lbn)), 16)
		if l.TotalSectors() > 0 {
			// First and last sectors must locate and round-trip.
			for _, lbn := range []int64{0, l.TotalSectors() - 1, l.TotalSectors() / 2} {
				loc, err := l.Locate(lbn)
				if err != nil {
					t.Fatalf("Locate(%d): %v", lbn, err)
				}
				back, err := l.LBNOf(loc)
				if err != nil || back != lbn {
					t.Fatalf("round trip %d -> %+v -> %d (%v)", lbn, loc, back, err)
				}
			}
		}
	})
}
