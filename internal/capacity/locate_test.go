package capacity_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/capacity"
	"repro/internal/drive"
	"repro/internal/geometry"
	"repro/internal/scaling"
	"repro/internal/units"
)

// TestLocateMatchesReference pins the zone-indexed Locate to the binary
// search it replaced on every layout the paper uses: the Table 1
// validation drives and the roadmap's 50-zone drives for each platter
// size, stack height and year.
func TestLocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range drive.Table1 {
		m, err := drive.New(v.Config())
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		capacity.CheckLocate(t, m.Layout(), rng, 2000)
	}
	trend := scaling.DefaultTrend()
	for year := 2002; year <= 2012; year++ {
		bpi, tpi := trend.Densities(year)
		for _, size := range []units.Inches{2.6, 2.1, 1.6} {
			for _, platters := range []int{1, 2, 4} {
				l, err := capacity.New(capacity.Config{
					Geometry: geometry.Drive{PlatterDiameter: size, Platters: platters, FormFactor: geometry.FormFactor35},
					BPI:      bpi,
					TPI:      tpi,
					Zones:    scaling.RoadmapZones,
				})
				if err != nil {
					t.Fatalf("%d %v\" x%d: %v", year, size, platters, err)
				}
				capacity.CheckLocate(t, l, rng, 200)
			}
		}
	}
}

// TestLocateConcurrentFirstUse has several goroutines make a fresh layout's
// first Locate calls at once, as fleet shards sharing a generation's layout
// do. Run under -race, it checks the lazily built zone index is published
// safely.
func TestLocateConcurrentFirstUse(t *testing.T) {
	m, err := drive.New(drive.Table1[len(drive.Table1)-1].Config())
	if err != nil {
		t.Fatal(err)
	}
	l := m.Layout()
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < 1000; i++ {
				lbn := rng.Int63n(l.TotalSectors())
				got, err := l.Locate(lbn)
				want, _ := capacity.ReferenceLocate(l, lbn)
				if err != nil || got != want {
					t.Errorf("Locate(%d) = %+v, %v; reference %+v", lbn, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
