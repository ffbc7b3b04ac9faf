// Package reliability models the temperature-failure relationship the paper
// builds its whole case on: "even a fifteen degree Celsius rise from the
// ambient temperature can double the failure rate of a disk drive"
// (Anderson, Dykes & Riedel, FAST'03 — the paper's reference [2]).
//
// The model is the standard Arrhenius-style acceleration expressed as a
// doubling law: the annualized failure rate doubles for every
// DoublingDelta degrees above the reference temperature. The paper's
// concluding remark — DTM can be used purely to lower operating temperature
// and thereby extend drive life — becomes quantitative here.
package reliability

import (
	"fmt"
	"math"
	"time"

	"repro/internal/units"
)

// Doubling-law constants.
const (
	// DoublingDelta is the temperature rise that doubles the failure rate.
	DoublingDelta units.Celsius = 15

	// ReferenceTemp is the internal air temperature the baseline AFR is
	// quoted at: the paper's thermal envelope, where drives are designed
	// to sit.
	ReferenceTemp units.Celsius = 45.22

	// BaselineAFR is the annualized failure rate at the reference
	// temperature. Enterprise drives of the era quoted ~0.8-1% AFR
	// (1M-1.4M hour MTTF); we use 1%.
	BaselineAFR = 0.01
)

// Model maps operating temperature to failure metrics.
type Model struct {
	// Reference and AFR override the defaults when nonzero.
	Reference units.Celsius
	AFR       float64
	Doubling  units.Celsius
}

// Default returns the doubling-law model at the paper's envelope.
func Default() Model { return Model{} }

func (m Model) reference() units.Celsius {
	if m.Reference == 0 {
		return ReferenceTemp
	}
	return m.Reference
}

func (m Model) baseAFR() float64 {
	if m.AFR == 0 {
		return BaselineAFR
	}
	return m.AFR
}

func (m Model) doubling() units.Celsius {
	if m.Doubling == 0 {
		return DoublingDelta
	}
	return m.Doubling
}

// AccelerationAt returns the failure-rate multiplier at an operating
// temperature relative to the reference (1.0 at the reference; 2.0 at
// reference + 15 C; 0.5 at reference - 15 C).
func (m Model) AccelerationAt(t units.Celsius) float64 {
	return pow2(float64(t-m.reference()) / float64(m.doubling()))
}

// ln2 is Log(2) as this platform's math.Log returns it, which is the factor
// math.Pow(2, y) scales y's fraction by. It is computed, not the constant
// math.Ln2: an assembly Log may round the last bit differently.
var ln2 = math.Log(2)

// pow2 returns math.Pow(2, y) bit for bit, at the cost of one Exp. For
// x = 2, Pow splits |y| into yi + yf with yf in (−0.5, 0.5] (moving a
// fraction above one half to the next integer) and returns
// Ldexp(Exp(yf·Log 2), yi), inverted for negative y. Its Frexp squaring
// loop only multiplies the mantissa by exact powers of two (0.5 per set
// bit of yi) and adds the matching exponents back, and Ldexp rounds once
// from mantissa bits and total exponent, so dropping the loop leaves every
// bit unchanged. The inputs Pow answers by special case (0, 1, ±0.5, NaN,
// ±Inf) and magnitudes from 2^52, whose fraction is empty and whose result
// is 0 or +Inf, go to Pow itself.
func pow2(y float64) float64 {
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || !(math.Abs(y) < 1<<52) {
		return math.Pow(2, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	a := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * ln2)
	}
	if y < 0 {
		return math.Ldexp(1/a, -int(yi))
	}
	return math.Ldexp(a, int(yi))
}

// AFRAt returns the annualized failure rate at a steady temperature.
func (m Model) AFRAt(t units.Celsius) float64 {
	return m.baseAFR() * m.AccelerationAt(t)
}

// MTTFAt returns the mean time to failure implied by the exponential model
// at a steady temperature.
func (m Model) MTTFAt(t units.Celsius) time.Duration {
	afr := m.AFRAt(t)
	if afr <= 0 {
		return time.Duration(math.MaxInt64)
	}
	hours := 365.25 * 24 / afr
	return time.Duration(hours * float64(time.Hour))
}

// SurvivalAt returns the probability a drive survives d of continuous
// operation at a steady temperature (exponential failure law).
func (m Model) SurvivalAt(t units.Celsius, d time.Duration) float64 {
	afr := m.AFRAt(t)
	years := d.Hours() / (365.25 * 24)
	return math.Exp(-afr * years)
}

// FailureProb returns the probability a drive fails within d of continuous
// operation at a steady temperature — the per-interval hazard fault
// injectors and rebuild-window (MTTDL-style) risk estimates draw from.
func (m Model) FailureProb(t units.Celsius, d time.Duration) float64 {
	return 1 - m.SurvivalAt(t, d)
}

// Exposure accumulates temperature-weighted operating time so a varying
// thermal profile (e.g. a DTM-controlled run) can be scored.
type Exposure struct {
	m          Model
	weighted   float64 // integral of acceleration dt, seconds
	total      time.Duration
	hottest    units.Celsius
	hasSamples bool
}

// NewExposure starts an accumulator under a model.
func NewExposure(m Model) *Exposure { return &Exposure{m: m} }

// Add records d of operation at temperature t.
func (e *Exposure) Add(t units.Celsius, d time.Duration) {
	if d <= 0 {
		return
	}
	e.weighted += e.m.AccelerationAt(t) * d.Seconds()
	e.total += d
	if !e.hasSamples || t > e.hottest {
		e.hottest = t
	}
	e.hasSamples = true
}

// Merge folds another exposure into e: the two temperature-weighted
// integrals add, as if the profiles had been recorded into one
// accumulator. Fleet-scale reductions use this to score thousands of
// drives without keeping per-drive accumulators alive.
func (e *Exposure) Merge(o *Exposure) {
	if o == nil || !o.hasSamples {
		return
	}
	e.weighted += o.weighted
	e.total += o.total
	if !e.hasSamples || o.hottest > e.hottest {
		e.hottest = o.hottest
	}
	e.hasSamples = true
}

// Total returns the accumulated operating time.
func (e *Exposure) Total() time.Duration { return e.total }

// Hottest returns the highest recorded temperature.
func (e *Exposure) Hottest() units.Celsius { return e.hottest }

// EffectiveAcceleration returns the time-averaged failure-rate multiplier —
// the single steady acceleration that would age the drive equally.
func (e *Exposure) EffectiveAcceleration() float64 {
	if e.total <= 0 {
		return 0
	}
	return e.weighted / e.total.Seconds()
}

// EffectiveTemperature inverts the doubling law on the effective
// acceleration: the steady temperature with the same aging.
func (e *Exposure) EffectiveTemperature() units.Celsius {
	acc := e.EffectiveAcceleration()
	if acc <= 0 {
		return e.m.reference()
	}
	return e.m.reference() + units.Celsius(math.Log2(acc)*float64(e.m.doubling()))
}

// EffectiveAFR returns the annualized failure rate of the profile.
func (e *Exposure) EffectiveAFR() float64 {
	return e.m.baseAFR() * e.EffectiveAcceleration()
}

// LifeExtension compares two thermal profiles: the factor by which profile
// e outlives profile other (ratio of their effective AFRs). >1 means e is
// gentler.
func (e *Exposure) LifeExtension(other *Exposure) (float64, error) {
	a, b := e.EffectiveAFR(), other.EffectiveAFR()
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("reliability: empty exposure")
	}
	return b / a, nil
}
