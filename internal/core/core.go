// Package core is the library facade: one import that ties the capacity,
// performance and thermal models, the technology roadmap, the disk
// simulator and the DTM policies together, and that can regenerate every
// table and figure of the paper (see Figure4, Experiments and the cmd/
// binaries).
//
// The underlying pieces remain importable individually:
//
//   - internal/capacity — ZBR/servo/ECC capacity model (section 3.1)
//   - internal/perf     — seek-time and IDR models (section 3.2)
//   - internal/thermal  — four-node finite-difference thermal model (3.3)
//   - internal/drive    — the integrated drive model and validation corpora
//   - internal/scaling  — density trends and the thermal roadmap (section 4)
//   - internal/disksim  — the DiskSim-substitute disk simulator
//   - internal/raid     — RAID-0/5/JBOD volume layer
//   - internal/trace    — synthetic stand-ins for the five Figure 4 traces
//   - internal/dtm      — dynamic thermal management (section 5)
package core

import (
	"repro/internal/drive"
	"repro/internal/geometry"
	"repro/internal/scaling"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Envelope re-exports the thermal design envelope (45.22 C internal air).
const Envelope = thermal.Envelope

// RoadmapDrive builds the integrated model of a roadmap-generation drive:
// the given year's densities on the given geometry at the given speed, in a
// 3.5" enclosure with the roadmap's 50 ZBR zones.
func RoadmapDrive(year int, size units.Inches, platters int, rpm units.RPM) (*drive.Model, error) {
	bpi, tpi := scaling.DefaultTrend().Densities(year)
	return drive.New(drive.Config{
		Name: "roadmap drive",
		Geometry: geometry.Drive{
			PlatterDiameter: size,
			Platters:        platters,
			FormFactor:      geometry.FormFactor35,
		},
		BPI:   bpi,
		TPI:   tpi,
		RPM:   rpm,
		Zones: scaling.RoadmapZones,
	})
}
