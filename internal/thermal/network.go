package thermal

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geometry"
	"repro/internal/materials"
	"repro/internal/units"
)

// Load is the operating point of a drive for thermal purposes.
type Load struct {
	// RPM is the spindle speed.
	RPM units.RPM

	// VCMDuty is the fraction of time the voice-coil motor draws full
	// power: 1 means continuously seeking (the worst case the envelope is
	// defined against), 0 means idle or fully sequential access.
	VCMDuty float64

	// Ambient is the external air temperature the cooling system maintains.
	Ambient units.Celsius
}

// WorstCase returns the envelope-defining load at the given speed: VCM always
// on, default ambient.
func WorstCase(rpm units.RPM) Load {
	return Load{RPM: rpm, VCMDuty: 1, Ambient: DefaultAmbient}
}

// State is the temperature of each network node.
type State struct {
	Air      units.Celsius // internal drive air
	Spindle  units.Celsius // spindle motor hub + platters
	Base     units.Celsius // base and cover castings
	Actuator units.Celsius // VCM + disk arms
}

// Uniform returns a state with every node at t — a drive soaked at ambient.
func Uniform(t units.Celsius) State { return State{t, t, t, t} }

// Model is the thermal model of one drive geometry.
type Model struct {
	drive geometry.Drive
	cal   Calibration

	// airPropsAt is the fixed film temperature at which air properties are
	// evaluated. The paper's roadmap numbers are only reproducible with
	// temperature-independent air (hot, thin air would otherwise damp the
	// windage blow-up); see DESIGN.md.
	airPropsAt units.Celsius

	// TemperatureDependentAir switches the convection correlations to use
	// film-temperature air properties. Off by default for fidelity with
	// the paper; exposed for the ablation study.
	TemperatureDependentAir bool

	// NoCache disables the operating-point memoization (see cache.go) and
	// each transient's per-speed entry, so every solve and step runs the
	// full arithmetic — the reference the cache equivalence tests and
	// benchmarks compare against.
	NoCache bool

	// cache memoizes steady solves and conductance evaluations per exact
	// operating point; see cache.go for the quantize-then-verify scheme.
	cache modelCache

	// vcmPower is VCMPower at the platter diameter, the full-duty coil
	// power: a per-model constant, so it is evaluated once.
	vcmPower units.Watts

	// Precomputed geometry.
	platterArea  float64 // m^2, air-washed stack area
	actuatorArea float64 // m^2, air-washed arm area
	enclosureIn  float64 // m^2, internal casting area washed by drive air
	enclosureOut float64 // m^2, external casting area
	outerRadiusM float64 // m

	// Node capacitances, J/K.
	cAir      float64
	cSpindle  float64
	cBase     float64
	cActuator float64
}

// New builds a thermal model for a drive using the default calibration.
func New(d geometry.Drive) (*Model, error) {
	return NewWithCalibration(d, DefaultCalibration())
}

// NewWithCalibration builds a thermal model with an explicit calibration.
func NewWithCalibration(d geometry.Drive, cal Calibration) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		drive:      d,
		cal:        cal,
		airPropsAt: 40,
	}
	m.vcmPower = VCMPower(d.PlatterDiameter)
	m.platterArea = d.PlatterWettedArea()
	m.actuatorArea = d.ActuatorWettedArea()
	m.enclosureOut = d.EnclosureArea()
	// Internal casting area: scale the external area down by the wall
	// thickness; close enough to recomputing the inner box.
	m.enclosureIn = 0.9 * m.enclosureOut
	m.outerRadiusM = float64(d.OuterRadius().Meters())

	al := materials.Aluminum
	m.cSpindle = d.SpindleAssemblyMass() * al.SpecificHeat
	m.cActuator = d.ActuatorMass() * al.SpecificHeat
	m.cBase = (d.CastingMass() + cal.ExtraCastingMass) * al.SpecificHeat
	air := materials.AirAt(m.airPropsAt)
	m.cAir = cal.AirCapacitanceFactor * d.InternalAirVolume() * air.Density * air.SpecificHeat
	return m, nil
}

// Drive returns the modelled geometry.
func (m *Model) Drive() geometry.Drive { return m.drive }

// Calibration returns the calibration in use.
func (m *Model) Calibration() Calibration { return m.cal }

// conductances are the five thermal couplings of the network, W/K.
type conductances struct {
	spindleAir   float64 // rotating stack <-> air convection
	actuatorAir  float64 // arms <-> air convection
	airBase      float64 // air <-> castings internal convection
	spindleBase  float64 // spindle bearing conduction
	actuatorBase float64 // pivot bearing conduction
	baseAmbient  float64 // castings <-> outside air
}

// conductancesAt evaluates the couplings at a spindle speed and (optionally)
// a film temperature.
func (m *Model) conductancesAt(rpm units.RPM, film units.Celsius) conductances {
	at := m.airPropsAt
	if m.TemperatureDependentAir {
		at = film
	}
	air := materials.AirAt(at)

	omega := rpm.RadPerSec()
	tip := omega * m.outerRadiusM // platter tip speed, m/s

	var g conductances

	// Rotating-disk convection (laminar below the critical rotational
	// Reynolds number, turbulent above).
	re := omega * m.outerRadiusM * m.outerRadiusM / air.KinematicViscosity
	var nu float64
	const reCrit = 2.4e5
	if re <= 0 {
		nu = 5 // natural-convection floor
	} else if re < reCrit {
		nu = 0.33 * math.Sqrt(re)
	} else {
		nu = 0.0151 * math.Pow(re, 0.8)
	}
	hDisk := nu * air.Conductivity / math.Max(m.outerRadiusM, 1e-6)
	g.spindleAir = math.Max(hDisk, 5) * m.platterArea

	// Arms washed by the swirl: flat-plate correlation at half tip speed.
	l := float64(m.drive.ArmLength().Meters())
	v := 0.5 * tip
	reArm := v * l / air.KinematicViscosity
	var hArm float64
	if reArm < 5e5 {
		hArm = 0.664 * math.Sqrt(math.Max(reArm, 1)) * math.Cbrt(air.Prandtl) * air.Conductivity / math.Max(l, 1e-6)
	} else {
		hArm = 0.037 * math.Pow(reArm, 0.8) * math.Cbrt(air.Prandtl) * air.Conductivity / math.Max(l, 1e-6)
	}
	g.actuatorAir = math.Max(hArm, 5) * m.actuatorArea

	// Internal air to castings: recirculating forced convection whose film
	// coefficient follows the swirl velocity^0.8 with the usual
	// Re^0.8-correlation property dependence (h ~ v^0.8 nu^-0.8 k). With
	// fixed-property air (the default, matching the paper) the property
	// factor is exactly 1 and CAB alone sets the magnitude. The swirl the
	// platters drive only washes a casting area that grows with platter
	// size, so the effective coupling carries a (d/d_ref)^SwirlAreaExponent
	// factor — this is what keeps small-platter drives warm in the paper's
	// Table 3 even though they dissipate far less power.
	ref := materials.AirAt(m.airPropsAt)
	propFactor := math.Pow(ref.KinematicViscosity/air.KinematicViscosity, 0.8) *
		(air.Conductivity / ref.Conductivity)
	swirlFactor := math.Pow(float64(m.drive.PlatterDiameter)/swirlRefDiameter, SwirlAreaExponent)
	hInt := m.cal.CAB * math.Pow(math.Max(tip, 0.1), 0.8) * propFactor
	g.airBase = math.Max(hInt*swirlFactor, 3) * m.enclosureIn

	// Bearing conduction paths: fixed small conductances.
	g.spindleBase = m.cal.GSpindleBearing
	g.actuatorBase = m.cal.GPivotBearing

	// Castings to ambient: forced external cooling with a calibrated film
	// coefficient over the enclosure area (this is how the 2.5" form
	// factor's smaller surface hurts).
	g.baseAmbient = m.cal.HExt * m.enclosureOut
	return g
}

// VCMAirFraction is the share of voice-coil power dissipated directly into
// the airstream around the arms; the rest soaks into the actuator's metal
// mass first. The direct share is what makes throttling the VCM effective
// within seconds — were all coil power routed through the arm mass, a
// stopped VCM would keep radiating stored heat for minutes and the paper's
// second-granularity throttling dynamics (Figure 7) could not exist.
const VCMAirFraction = 0.7

// spinLosses are the speed-dependent heat sources: platter windage into the
// air and bearing loss into the spindle.
type spinLosses struct {
	windage, bearing units.Watts
}

// spinLosses evaluates the windage and bearing laws at a spindle speed.
func (m *Model) spinLosses(rpm units.RPM) spinLosses {
	return spinLosses{
		windage: ViscousDissipation(rpm, m.drive.PlatterDiameter, m.drive.Platters),
		bearing: BearingLoss(rpm, m.drive.PlatterDiameter),
	}
}

// dutyInputs returns the source power into the air, spindle and actuator
// nodes: the voice-coil power at a duty (clamped to [0, 1]) on top of the
// speed-dependent losses. It is the one heat-input formula both the steady
// solve and the transient step use.
func (m *Model) dutyInputs(l spinLosses, duty float64) (pAir, pSpindle, pActuator units.Watts) {
	if duty < 0 {
		duty = 0
	} else if duty > 1 {
		duty = 1
	}
	vcm := duty * float64(m.vcmPower)
	pAir = l.windage + units.Watts(VCMAirFraction*vcm)
	return pAir, l.bearing, units.Watts((1 - VCMAirFraction) * vcm)
}

// SteadyState solves the network for the equilibrium temperatures under a
// constant load. Solves are memoized per exact operating point (cache.go):
// the sweep engines and DTM controllers revisit a handful of points
// thousands of times, and the cached result is bit-identical to a direct
// solve.
func (m *Model) SteadyState(load Load) State {
	return m.steadyCached(load)
}

// steadyDirect is the uncached steady solve. memo routes the couplings
// through the model's conductance memo; MaxRPM's scan, whose points are
// each solved once, evaluates them directly and leaves the memo alone.
func (m *Model) steadyDirect(load Load, memo bool) State {
	// With fixed air properties the network is linear: one solve. With
	// film-temperature properties, iterate the film temperature.
	film := load.Ambient + 10
	var st State
	for iter := 0; iter < 50; iter++ {
		var g conductances
		if memo {
			g = m.condCached(load.RPM, film)
		} else {
			g = m.conductancesAt(load.RPM, film)
		}
		st = m.solveLinear(load, g)
		next := (st.Air + load.Ambient) / 2
		if math.Abs(float64(next-film)) < 0.01 || !m.TemperatureDependentAir {
			return st
		}
		film = next
	}
	return st
}

// solveLinear solves the 4-node steady heat balance by Gaussian elimination.
// Node order: air, spindle, base, actuator.
func (m *Model) solveLinear(load Load, g conductances) State {
	pAir, pSpm, pAct := m.dutyInputs(m.spinLosses(load.RPM), load.VCMDuty)
	amb := float64(load.Ambient)

	// A*T = b
	var a [4][4]float64
	var b [4]float64

	// Air node.
	a[0][0] = g.spindleAir + g.actuatorAir + g.airBase
	a[0][1] = -g.spindleAir
	a[0][2] = -g.airBase
	a[0][3] = -g.actuatorAir
	b[0] = float64(pAir)

	// Spindle node.
	a[1][0] = -g.spindleAir
	a[1][1] = g.spindleAir + g.spindleBase
	a[1][2] = -g.spindleBase
	b[1] = float64(pSpm)

	// Base node.
	a[2][0] = -g.airBase
	a[2][1] = -g.spindleBase
	a[2][2] = g.airBase + g.spindleBase + g.actuatorBase + g.baseAmbient
	a[2][3] = -g.actuatorBase
	b[2] = g.baseAmbient * amb

	// Actuator node.
	a[3][0] = -g.actuatorAir
	a[3][2] = -g.actuatorBase
	a[3][3] = g.actuatorAir + g.actuatorBase
	b[3] = float64(pAct)

	t, ok := solve4(a, b)
	if !ok {
		// A validated model can never get here: every coupling has a
		// positive floor (the convection terms are clamped, the bearing and
		// external conductances are validated positive), which makes the
		// heat-balance matrix strictly diagonally dominant and hence
		// nonsingular. A singular system therefore means corrupted inputs,
		// and NaN temperatures propagate that loudly instead of the silent
		// all-zero state the old solver left behind.
		nan := units.Celsius(math.NaN())
		return State{Air: nan, Spindle: nan, Base: nan, Actuator: nan}
	}
	return State{
		Air:      units.Celsius(t[0]),
		Spindle:  units.Celsius(t[1]),
		Base:     units.Celsius(t[2]),
		Actuator: units.Celsius(t[3]),
	}
}

// solve4 solves a 4x4 linear system with partial pivoting. The second
// return is false when the system is singular (a zero pivot); the solution
// is then meaningless and must not be used.
func solve4(a [4][4]float64, b [4]float64) ([4]float64, bool) {
	const n = 4
	var x [4]float64
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		piv := a[col][col]
		if piv == 0 {
			return x, false
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / piv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

// SwirlAreaExponent scales the air-to-casting coupling with platter diameter:
// the washed casting area grows with the platter size. The value is
// calibrated so the small-platter Table 3 temperature columns and the
// Figure 3 cooling-extension years (+1 year at -5 C, +2 at -10 C) reproduce.
// The reference diameter is the calibration drive's 2.6".
const (
	SwirlAreaExponent = 1.3
	swirlRefDiameter  = 2.6
)

// StepsPerMinute is the finite-difference time resolution the paper found to
// be converged (600 steps per minute, i.e. 100 ms steps).
const StepsPerMinute = 600

// DefaultStep is the transient solver's nominal time step.
const DefaultStep = time.Minute / StepsPerMinute

// Transient integrates the network forward in time under a possibly changing
// load. The explicit scheme sub-steps adaptively so the fast air node stays
// stable at any RPM.
type Transient struct {
	m     *Model
	state State
	now   time.Duration

	// op caches everything a step derives from the spindle speed alone.
	// Callers hold a speed for many consecutive steps and change only the
	// duty and ambient, so the entry is refreshed only when load.RPM
	// changes; with fixed-property air it is exactly what the per-step
	// evaluation would produce.
	op operatingPoint
}

// operatingPoint is a transient's one-entry cache: the speed-dependent heat
// sources, couplings and stability bound at one exact spindle speed.
type operatingPoint struct {
	valid  bool
	rpm    units.RPM
	losses spinLosses
	g      conductances
	stable float64 // explicit-scheme sub-step bound, seconds
}

// NewTransient starts a transient simulation from an initial state.
func (m *Model) NewTransient(initial State) *Transient {
	return &Transient{m: m, state: initial}
}

// State returns the current node temperatures.
func (t *Transient) State() State { return t.state }

// Now returns the simulated time elapsed.
func (t *Transient) Now() time.Duration { return t.now }

// SetState overrides the node temperatures (used to start experiments at the
// envelope).
func (t *Transient) SetState(s State) { t.state = s }

// Advance integrates the model forward by d under a constant load.
func (t *Transient) Advance(load Load, d time.Duration) {
	remaining := d.Seconds()
	for remaining > 1e-12 {
		dt := t.step(load, math.Min(remaining, DefaultStep.Seconds()))
		remaining -= dt
	}
	t.now += d
}

// AdvanceUntil integrates under a constant load until cond(state) is true or
// the limit elapses; it reports the time consumed and whether cond fired.
func (t *Transient) AdvanceUntil(load Load, limit time.Duration, cond func(State) bool) (time.Duration, bool) {
	elapsed := 0.0
	lim := limit.Seconds()
	for elapsed < lim {
		if cond(t.state) {
			d := time.Duration(elapsed * float64(time.Second))
			t.now += d
			return d, true
		}
		dt := t.step(load, math.Min(lim-elapsed, DefaultStep.Seconds()))
		elapsed += dt
	}
	d := time.Duration(elapsed * float64(time.Second))
	t.now += d
	return d, cond(t.state)
}

// step advances up to maxDT seconds, sub-stepping for stability; it returns
// the time actually advanced (== maxDT).
func (t *Transient) step(load Load, maxDT float64) float64 {
	m := t.m
	// With film-temperature air the couplings track the state, and NoCache
	// asks for the uncached reference: both re-derive every step.
	perStep := m.TemperatureDependentAir || m.NoCache
	if perStep || !t.op.valid || t.op.rpm != load.RPM {
		film := (t.state.Air + load.Ambient) / 2
		t.op = m.operatingPointAt(load.RPM, film)
		t.op.valid = !perStep
	}
	g, stable := t.op.g, t.op.stable
	pAir, pSpm, pAct := m.dutyInputs(t.op.losses, load.VCMDuty)
	amb := float64(load.Ambient)

	remaining := maxDT
	for remaining > 1e-12 {
		dt := math.Min(remaining, stable)
		s := &t.state
		ta, ts, tb, tv := float64(s.Air), float64(s.Spindle), float64(s.Base), float64(s.Actuator)

		qAir := float64(pAir) + g.spindleAir*(ts-ta) + g.actuatorAir*(tv-ta) + g.airBase*(tb-ta)
		qSpm := float64(pSpm) + g.spindleAir*(ta-ts) + g.spindleBase*(tb-ts)
		qBase := g.airBase*(ta-tb) + g.spindleBase*(ts-tb) + g.actuatorBase*(tv-tb) + g.baseAmbient*(amb-tb)
		qAct := float64(pAct) + g.actuatorAir*(ta-tv) + g.actuatorBase*(tb-tv)

		s.Air = units.Celsius(ta + qAir/m.cAir*dt)
		s.Spindle = units.Celsius(ts + qSpm/m.cSpindle*dt)
		s.Base = units.Celsius(tb + qBase/m.cBase*dt)
		s.Actuator = units.Celsius(tv + qAct/m.cActuator*dt)
		remaining -= dt
	}
	return maxDT
}

// operatingPointAt evaluates the speed-dependent part of a step. film only
// matters with TemperatureDependentAir.
func (m *Model) operatingPointAt(rpm units.RPM, film units.Celsius) operatingPoint {
	g := m.condCached(rpm, film)
	// Stability bound: dt < C_i / sum(G_i) for every node; use half.
	stable := math.Min(
		math.Min(m.cAir/(g.spindleAir+g.actuatorAir+g.airBase),
			m.cSpindle/(g.spindleAir+g.spindleBase)),
		math.Min(m.cBase/(g.airBase+g.spindleBase+g.actuatorBase+g.baseAmbient),
			m.cActuator/(g.actuatorAir+g.actuatorBase)),
	) * 0.5
	return operatingPoint{rpm: rpm, losses: m.spinLosses(rpm), g: g, stable: stable}
}

// MaxRPM finds the highest spindle speed whose steady internal-air
// temperature stays at or below the envelope under the given duty and
// ambient. The steady temperature is U-shaped in RPM (at very low speed the
// internal convection is too weak to carry the VCM heat out; at high speed
// windage dominates), so the search first finds any feasible speed and then
// bisects along the rising branch. It returns 0 if no speed is feasible.
// Its few hundred probe points are solved directly, outside the memo: a
// search visits each once, so storing them would only fill the model's
// tables with entries nothing reads (the results are bit-identical either
// way).
func (m *Model) MaxRPM(envelope units.Celsius, vcmDuty float64, ambient units.Celsius) units.RPM {
	tempAt := func(rpm float64) float64 {
		st := m.steadyDirect(Load{RPM: units.RPM(rpm), VCMDuty: vcmDuty, Ambient: ambient}, false)
		return float64(st.Air)
	}
	// Feasibility uses a 1 mK slack: the envelope may sit exactly on the
	// temperature curve's minimum (it does for the calibration reference),
	// where exact comparison is numerically knife-edged.
	env := float64(envelope) + 1e-3

	// Scan a log-spaced grid for the highest feasible point and the curve
	// minimum (the curve is U-shaped: weak convection at low speed, windage
	// at high speed). The feasible window can be a sliver just above the
	// minimum — for the calibration reference the envelope IS the minimum —
	// so the minimum is refined by golden-section before giving up.
	const gridTop = 2e6
	const step = 1.02
	lastFeasible := -1.0
	argMin, minT := 500.0, math.Inf(1)
	for rpm := 500.0; rpm <= gridTop; rpm *= step {
		tv := tempAt(rpm)
		if tv < minT {
			argMin, minT = rpm, tv
		}
		if tv <= env {
			lastFeasible = rpm
		}
	}
	if lastFeasible < 0 {
		// Golden-section refine the minimum between the grid neighbours.
		a, b := argMin/step, argMin*step
		const phi = 0.6180339887498949
		x1 := b - phi*(b-a)
		x2 := a + phi*(b-a)
		f1, f2 := tempAt(x1), tempAt(x2)
		for i := 0; i < 60 && b-a > 0.1; i++ {
			if f1 < f2 {
				b, x2, f2 = x2, x1, f1
				x1 = b - phi*(b-a)
				f1 = tempAt(x1)
			} else {
				a, x1, f1 = x1, x2, f2
				x2 = a + phi*(b-a)
				f2 = tempAt(x2)
			}
		}
		argMin = (a + b) / 2
		if tempAt(argMin) > env {
			return 0
		}
		lastFeasible = argMin
	}
	// Walk up the rising branch from the best known feasible speed.
	lo := lastFeasible
	hi := lo * 1.08
	for tempAt(hi) <= env {
		lo = hi
		hi *= 1.5
		if hi > gridTop {
			return units.RPM(gridTop) // feasible beyond any physical speed
		}
	}
	for i := 0; i < 60 && hi-lo > 0.5; i++ {
		mid := (lo + hi) / 2
		if tempAt(mid) <= env {
			lo = mid
		} else {
			hi = mid
		}
	}
	return units.RPM(lo)
}

// String implements fmt.Stringer for State.
func (s State) String() string {
	return fmt.Sprintf("air=%.2fC spindle=%.2fC base=%.2fC actuator=%.2fC",
		float64(s.Air), float64(s.Spindle), float64(s.Base), float64(s.Actuator))
}
