package fleet

import (
	"fmt"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/scaling"
	"repro/internal/thermal"
	"repro/internal/units"
)

// genZones matches the DTM runners' zone count so fleet drives service
// requests over the same layout resolution.
const genZones = 50

// Generation is one drive model on the scaling roadmap: the year's
// projected densities (scaling.DefaultTrend) on the reference 2.6"
// single-platter mechanism, spinning at that year's thermal-envelope
// speed. Fleets mix generations round-robin across slots, the way real
// datacenters accumulate hardware over procurement cycles.
type Generation struct {
	Year int

	Geom    geometry.Drive
	Layout  *capacity.Layout
	Thermal *thermal.Model

	// RPM is the envelope speed — the fastest spin the year's drive
	// sustains inside the paper's 45.22 C envelope at the default ambient.
	RPM units.RPM

	// TotalSectors is the layout's addressable size; streams address
	// drives by capacity fraction so a migrated stream stays in range on
	// any generation.
	TotalSectors int64

	// Dissipation is the design-point (always-seeking, full-duty) heat
	// output in the airstream. The coupling uses the design point rather
	// than instantaneous duty so slot ambients are assignment-independent
	// — which is what makes placement computable up front and shards
	// independent.
	Dissipation units.Watts
}

// generations materialises the configured years, deduplicating repeats so
// a thousand-slot fleet over four years builds four layouts. The returned
// slice is positional: slot s (globally indexed) runs gens[s%len(gens)].
// Layouts and thermal models are safe for concurrent shards to share.
func generations(years []int) ([]*Generation, error) {
	cache := make(map[int]*Generation, len(years))
	out := make([]*Generation, len(years))
	for i, y := range years {
		if g := cache[y]; g != nil {
			out[i] = g
			continue
		}
		geom := geometry.Drive{PlatterDiameter: 2.6, Platters: 1}
		bpi, tpi := scaling.DefaultTrend().Densities(y)
		layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: genZones})
		if err != nil {
			return nil, fmt.Errorf("fleet: generation %d: %w", y, err)
		}
		th, err := thermal.New(geom)
		if err != nil {
			return nil, fmt.Errorf("fleet: generation %d: %w", y, err)
		}
		// A single-platter stack gets no cooling budget, so its envelope
		// speed is the full-duty search at the default ambient.
		rpm := th.MaxRPM(thermal.Envelope, 1, thermal.DefaultAmbient)
		diss := thermal.ViscousDissipation(rpm, geom.PlatterDiameter, geom.Platters) +
			thermal.BearingLoss(rpm, geom.PlatterDiameter) +
			thermal.VCMPower(geom.PlatterDiameter)
		g := &Generation{
			Year:         y,
			Geom:         geom,
			Layout:       layout,
			Thermal:      th,
			RPM:          rpm,
			TotalSectors: layout.TotalSectors(),
			Dissipation:  diss,
		}
		cache[y] = g
		out[i] = g
	}
	return out, nil
}
