package scaling

import (
	"fmt"
	"slices"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/perf"
	"repro/internal/thermal"
	"repro/internal/units"
)

// DesignWalk executes the paper's section 4 methodology literally, year by
// year, as a drive designer would:
//
//  1. carry last year's configuration forward with the new densities; if the
//     density growth alone meets the IDR target, done;
//  2. otherwise raise the RPM to the target — if the thermal envelope still
//     holds, done;
//  3. otherwise shrink the platter (the smaller size needs a higher RPM for
//     the same IDR but dissipates far less);
//  4. shrinking costs capacity; when the capacity falls below what the
//     previous year shipped, add a platter and re-run the checks.
//
// The walk stops changing the design once no configuration meets the target
// (the roadmap's falloff); from then on it ships the fastest envelope-legal
// configuration.
type WalkStep struct {
	Year     int
	Size     units.Inches
	Platters int
	RPM      units.RPM
	IDR      units.MBPerSec
	Capacity units.Bytes

	// MeetsTarget reports whether the year's 40% CGR goal was achieved.
	MeetsTarget bool

	// CoolingBudget is the extra cooling (ambient reduction) bought when a
	// platter was added — the paper: adding platters "increase[s] the
	// cooling requirements for the product".
	CoolingBudget units.Celsius

	// Action describes what the designer did this year.
	Action string
}

// WalkConfig parameterises the walk.
type WalkConfig struct {
	FirstYear, LastYear int
	// Sizes are the available platter sizes, largest first
	// (default 2.6", 2.1", 1.6").
	Sizes []units.Inches
	// StartSize and StartPlatters seed the first year (defaults 2.6", 1).
	StartSize     units.Inches
	StartPlatters int
	// MaxPlatters bounds step 4 (default 4).
	MaxPlatters int
	// Trend supplies densities (zero value = DefaultTrend()).
	Trend Trend
	// Zones is the ZBR zone count (0 = RoadmapZones).
	Zones int
}

func (c WalkConfig) withDefaults() WalkConfig {
	if c.FirstYear == 0 {
		c.FirstYear = 2002
	}
	if c.LastYear == 0 {
		c.LastYear = 2012
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []units.Inches{2.6, 2.1, 1.6}
	}
	if c.StartSize == 0 {
		c.StartSize = c.Sizes[0]
	}
	if c.StartPlatters == 0 {
		c.StartPlatters = 1
	}
	if c.MaxPlatters == 0 {
		c.MaxPlatters = 4
	}
	if (c.Trend == Trend{}) {
		c.Trend = DefaultTrend()
	}
	if c.Zones == 0 {
		c.Zones = RoadmapZones
	}
	return c
}

// candidate evaluates one (size, platters) option in one year.
type candidate struct {
	size     units.Inches
	platters int
	layout   *capacity.Layout
	maxRPM   units.RPM
	budget   units.Celsius
}

// DesignWalk runs the methodology and returns one step per year.
func DesignWalk(cfg WalkConfig) ([]WalkStep, error) {
	cfg = cfg.withDefaults()
	if cfg.LastYear < cfg.FirstYear {
		return nil, fmt.Errorf("scaling: year range [%d,%d] inverted", cfg.FirstYear, cfg.LastYear)
	}

	// Envelope speeds depend only on geometry; cache them.
	maxRPM := make(map[geometry.Drive]units.RPM)
	envelopeRPM := func(g geometry.Drive) (units.RPM, error) {
		if v, ok := maxRPM[g]; ok {
			return v, nil
		}
		th, err := thermal.New(g)
		if err != nil {
			return 0, err
		}
		v := th.MaxRPM(thermal.Envelope, 1, thermal.DefaultAmbient)
		maxRPM[g] = v
		return v, nil
	}

	// budgets remembers the cooling bought for each platter count, so later
	// years keep the colder ambient once the product line has moved.
	budgets := map[int]units.Celsius{}

	build := func(year int, size units.Inches, platters int) (candidate, error) {
		g := geometry.Drive{PlatterDiameter: size, Platters: platters, FormFactor: geometry.FormFactor35}
		bpi, tpi := cfg.Trend.Densities(year)
		layout, err := capacity.New(capacity.Config{Geometry: g, BPI: bpi, TPI: tpi, Zones: cfg.Zones})
		if err != nil {
			return candidate{}, err
		}
		budget := budgets[platters]
		var rpm units.RPM
		if budget > 0 {
			th, err := thermal.New(g)
			if err != nil {
				return candidate{}, err
			}
			rpm = th.MaxRPM(thermal.Envelope, 1, thermal.DefaultAmbient-budget)
		} else {
			rpm, err = envelopeRPM(g)
			if err != nil {
				return candidate{}, err
			}
		}
		return candidate{size: size, platters: platters, layout: layout, maxRPM: rpm, budget: budget}, nil
	}

	meets := func(c candidate, target units.MBPerSec) bool {
		return float64(perf.IDR(c.layout, c.maxRPM)) >= float64(target)*(1-TargetTolerance)
	}

	size, platters := cfg.StartSize, cfg.StartPlatters
	var lastCapacity units.Bytes
	var steps []WalkStep

	for year := cfg.FirstYear; year <= cfg.LastYear; year++ {
		target := TargetIDR(year)
		cur, err := build(year, size, platters)
		if err != nil {
			return nil, err
		}
		action := "density growth alone"
		chosen := cur

		if !meets(cur, target) {
			// Step 3: shrink the platter until the target fits: the first
			// (largest) smaller size that meets it.
			action = ""
			idx := slices.Index(cfg.Sizes, size)
			if idx < 0 {
				return nil, fmt.Errorf("scaling: size %v not in the candidate set", size)
			}
			found := false
			for _, s := range cfg.Sizes[idx+1:] {
				cand, err := build(year, s, platters)
				if err != nil {
					return nil, err
				}
				if meets(cand, target) {
					chosen = cand
					action = fmt.Sprintf("shrank platter to %v", cand.size)
					found = true
					break
				}
			}
			// Step 4: recover lost capacity by adding platters, buying the
			// extra cooling the taller stack needs (the paper's "shift into
			// the 2-platter system ... increase the cooling requirements").
			if found && lastCapacity > 0 && chosen.layout.DeratedCapacity() < lastCapacity &&
				chosen.platters < cfg.MaxPlatters {
				grown, err := build(year, chosen.size, chosen.platters+1)
				if err != nil {
					return nil, err
				}
				g := geometry.Drive{
					PlatterDiameter: grown.size,
					Platters:        grown.platters,
					FormFactor:      geometry.FormFactor35,
				}
				needed := perf.RPMForIDR(grown.layout, target)
				extra, err := thermal.CoolingBudget(g, needed)
				if err == nil {
					grown.maxRPM = needed
					grown.budget = extra
					if extra > budgets[grown.platters] {
						budgets[grown.platters] = extra
					}
					chosen = grown
					action += fmt.Sprintf(", added a platter (%d total, %.1f C cooling budget)",
						grown.platters, float64(extra))
				}
			}
			if !found {
				// Falloff: ship the fastest legal configuration among all
				// remaining options (ties keep the larger size).
				best := cur
				for _, s := range cfg.Sizes[idx:] {
					cand, err := build(year, s, platters)
					if err != nil {
						return nil, err
					}
					if perf.IDR(cand.layout, cand.maxRPM) > perf.IDR(best.layout, best.maxRPM) {
						best = cand
					}
				}
				chosen = best
				action = "off the roadmap; shipped fastest legal design"
			}
		} else if size != cfg.StartSize || platters != cfg.StartPlatters {
			action = "carried configuration forward"
		}

		// The shipping RPM is the lower of the envelope limit and what the
		// target needs (manufacturers do not overshoot the target, per the
		// paper's reading of Figure 2).
		shipRPM := chosen.maxRPM
		if need := perf.RPMForIDR(chosen.layout, target); need < shipRPM {
			shipRPM = need
		}
		idr := perf.IDR(chosen.layout, shipRPM)
		cap := chosen.layout.DeratedCapacity()
		steps = append(steps, WalkStep{
			Year:          year,
			Size:          chosen.size,
			Platters:      chosen.platters,
			RPM:           shipRPM,
			IDR:           idr,
			Capacity:      cap,
			MeetsTarget:   float64(idr) >= float64(target)*(1-TargetTolerance),
			CoolingBudget: chosen.budget,
			Action:        action,
		})
		size, platters = chosen.size, chosen.platters
		lastCapacity = cap
	}
	return steps, nil
}
