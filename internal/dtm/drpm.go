package dtm

import (
	"time"

	"repro/internal/disksim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// DRPM is a multi-speed policy in the style of the authors' earlier DRPM
// work (ISCA'03), which the paper cites as the enabling mechanism for
// full-granularity thermal control: the disk services requests at any of
// several speed levels, and the controller walks the level ladder — down
// when the internal air nears the envelope, up when thermal slack opens.
// Unlike the two-speed throttling of Figure 6(b), requests keep flowing at
// reduced speed instead of stopping entirely.
type DRPM struct {
	// Disk services the requests; its initial speed must be one of Levels.
	Disk *disksim.Disk

	// Thermal is the drive's thermal model.
	Thermal *thermal.Model

	// Levels are the available spindle speeds, any order (sorted on Run).
	Levels []units.RPM

	// StepDownAt is the air temperature that forces a step down
	// (0 = envelope - 0.05).
	StepDownAt units.Celsius

	// StepUpBelow is the air temperature that allows a step up
	// (0 = envelope - 2).
	StepUpBelow units.Celsius

	// Ambient is the external temperature (0 = default).
	Ambient units.Celsius

	// Transition is the time one level change takes (0 = 2 s).
	Transition time.Duration

	// Initial optionally warm-starts the thermal state.
	Initial *thermal.State

	// SampleEvery, when positive, adds a periodic temperature-observation
	// tick on the event-engine clock during RunStream (zero = off).
	SampleEvery time.Duration

	// Ins is the optional metric handle set (NewInstruments); nil — the
	// default — keeps the control loop observation-free.
	Ins *Instruments
}

// DRPMResult summarises a run.
type DRPMResult struct {
	MeanResponseMillis float64
	P95ResponseMillis  float64
	MaxAirTemp         units.Celsius

	// Transitions counts level changes; TimeAtLevel maps each speed to
	// the busy+idle time spent there.
	Transitions int
	TimeAtLevel map[units.RPM]time.Duration

	// Elapsed is the simulated time from first arrival to last completion.
	Elapsed time.Duration
}

// Run services requests (sorted by arrival) under the level-walking policy.
// It is the batch wrapper over RunStream, with the response percentile
// computed exactly from the retained responses rather than P²-estimated.
func (p *DRPM) Run(reqs []disksim.Request) (DRPMResult, error) {
	res, b, err := runBatch(p.RunStream, reqs)
	res.MeanResponseMillis, res.P95ResponseMillis = b.mean, b.p95
	return res, err
}
