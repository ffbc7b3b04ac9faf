package capacity

import (
	"fmt"
	"math/rand"
	"testing"
)

// ReferenceLocate is Locate as it was before the zone index: a binary
// search of the zone table by FirstLBN. The differential tests pin Locate
// to it; it is exported for the package's external tests.
func ReferenceLocate(l *Layout, lbn int64) (Location, error) {
	if lbn < 0 || lbn >= l.totalSectors {
		return Location{}, fmt.Errorf("capacity: LBN %d outside [0,%d)", lbn, l.totalSectors)
	}
	lo, hi := 0, len(l.Zones)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.Zones[mid].FirstLBN <= lbn {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	z := &l.Zones[lo]
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

// CheckLocate compares Locate with ReferenceLocate at every zone's first
// LBN and its neighbours, at both ends of the address space and one past
// each, and at random LBNs drawn from rng.
func CheckLocate(tb testing.TB, l *Layout, rng *rand.Rand, random int) {
	tb.Helper()
	probes := []int64{-1, 0, l.totalSectors - 1, l.totalSectors}
	for _, z := range l.Zones {
		probes = append(probes, z.FirstLBN-1, z.FirstLBN, z.FirstLBN+1)
	}
	for i := 0; i < random && l.totalSectors > 0; i++ {
		probes = append(probes, rng.Int63n(l.totalSectors))
	}
	for _, lbn := range probes {
		checkLocateAt(tb, l, lbn)
	}
}

func checkLocateAt(tb testing.TB, l *Layout, lbn int64) {
	tb.Helper()
	got, gotErr := l.Locate(lbn)
	want, wantErr := ReferenceLocate(l, lbn)
	if (gotErr != nil) != (wantErr != nil) || got != want {
		tb.Fatalf("Locate(%d) = %+v, %v; reference %+v, %v", lbn, got, gotErr, want, wantErr)
	}
}
