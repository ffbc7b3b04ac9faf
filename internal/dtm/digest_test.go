package dtm

// Output digests of the five closed-loop controllers. Each case runs one
// controller configuration on a seeded workload and hashes every completion
// the sink saw, every field of the returned result (floats by their bits)
// and, when metrics are on, the Instruments registry snapshot. The recorded
// digests pin the controllers' floating-point operation order: any change to
// the co-advance loop that reorders a single thermal step, note or
// accumulation shows up here as a different hex string.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/disksim"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// digestValue feeds v into h field by field: integers and bools by value,
// floats by their IEEE bits, strings with their length, slices and arrays
// element-wise, maps in sorted-key order, pointers by their target.
func digestValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		digestValue(h, v.Elem())
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			switch a.Kind() {
			case reflect.Float32, reflect.Float64:
				return a.Float() < b.Float()
			case reflect.String:
				return a.String() < b.String()
			default:
				return a.Int() < b.Int()
			}
		})
		put(uint64(len(keys)))
		for _, k := range keys {
			digestValue(h, k)
			digestValue(h, v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	default:
		panic("digestValue: unsupported kind " + v.Kind().String())
	}
}

// digestRun is the hex digest of one run's completions, result and metric
// snapshot (nil registry: no snapshot).
func digestRun(comps []disksim.Completion, res any, reg *obs.Registry) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(comps))
	digestValue(h, reflect.ValueOf(res))
	if reg != nil {
		digestValue(h, reflect.ValueOf(reg.Snapshot()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seededFaults is the digest cases' fault injector: default off-track and
// reliability models, a fixed seed, and an optional failure-hazard
// acceleration (0 = physical rate).
func seededFaults(accel float64) *ThermalFaults {
	f := NewThermalFaults(OffTrackModel{}, reliability.Default(), nil, 41)
	f.TimeAcceleration = accel
	return f
}

func TestControllerDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled runs")
	}
	type env struct {
		disk *disksim.Disk
		th   *thermal.Model
		reqs sim.Source[disksim.Request]
		ins  *Instruments
		// hot and warm are the 24,534 RPM worst-case steady state and a
		// state 4 C under the envelope on the same drive.
		hot, warm thermal.State
	}
	// setup builds a fresh disk at rpm, an n-request workload at rate, and
	// (metrics) a registry-backed Instruments.
	setup := func(t *testing.T, rpm units.RPM, n int, rate float64, metrics bool) (env, *obs.Registry) {
		disk, th := buildDTMDisk(t, rpm)
		e := env{disk: disk, th: th,
			reqs: sim.FromSlice(dtmWorkload(t, disk.Layout().TotalSectors(), n, rate)),
			hot:  th.SteadyState(thermal.WorstCase(24534)),
		}
		e.warm = e.hot
		e.warm.Air = thermal.Envelope - 4
		var reg *obs.Registry
		if metrics {
			reg = obs.NewRegistry()
			e.ins = NewInstruments(reg, "digest")
		}
		return e, reg
	}
	// stream runs a RunStream-shaped function and digests its output.
	type runner func(env, sim.Sink[disksim.Completion]) (any, error)
	stream := func(t *testing.T, rpm units.RPM, n int, rate float64, metrics bool, run runner) string {
		e, reg := setup(t, rpm, n, rate, metrics)
		var collect sim.Appender[disksim.Completion]
		res, err := run(e, &collect)
		if err != nil {
			t.Fatal(err)
		}
		return digestRun(collect.Items, res, reg)
	}
	levels := []units.RPM{24534, 21000, 18000, 15020}

	cases := []struct {
		name string
		run  func(*testing.T) string
		want string
	}{
		{"controller/cold/vcm-only/batch", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, false, func(e env, _ sim.Sink[disksim.Completion]) (any, error) {
				return (&Controller{Disk: e.disk, Thermal: e.th, Mode: VCMOnly}).Run(sim.Collect(e.reqs))
			})
		}, "fe045cd46420e720f9583785177a94ffa673d73f3795e984986dd2e4ad6f0706"},
		{"controller/warm/vcm-only/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&Controller{Disk: e.disk, Thermal: e.th, Mode: VCMOnly, Initial: &e.warm, Ins: e.ins}).
					RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "c5d2985490ff20ac21391d0587db5c080efdc3dc0d444c5541023789c5c00462"},
		{"controller/hot/vcm-and-rpm/seek-duty", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, false, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&Controller{Disk: e.disk, Thermal: e.th, Mode: VCMAndRPM, LowRPM: 15020,
					Initial: &e.hot, SeekDuty: true}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "ec52ff0050ed3a26818c6bf938ab788164fb46e9ff95edde9624daf5276543c3"},
		{"controller/warm/sample-every/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 60, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&Controller{Disk: e.disk, Thermal: e.th, Mode: VCMOnly, Initial: &e.warm,
					SampleEvery: 250 * time.Millisecond, Ins: e.ins}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "f7599750f16e76c3c0dc4dd95a9c12fa4495812894a02daa938c0095cf831f89"},
		{"slack-ramp/cold", func(t *testing.T) string {
			return stream(t, 15020, 3000, 60, false, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&SlackRamp{Disk: e.disk, Thermal: e.th, BoostRPM: 24534}).
					RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "1520fad9012cc3c779169c1daefdd704960ffe633314d4e3eed7eaefad19f5d5"},
		{"slack-ramp/warm/faults/ins", func(t *testing.T) string {
			return stream(t, 15020, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&SlackRamp{Disk: e.disk, Thermal: e.th, BoostRPM: 24534, Initial: &e.warm,
					Faults: seededFaults(0), Ins: e.ins}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "a5fabd601fbc589e71f4bee07e8eb3cd878fd60f822b0b3fc6110c29664a4a1e"},
		{"slack-ramp/warm/sample-every/batch", func(t *testing.T) string {
			return stream(t, 15020, 3000, 120, false, func(e env, _ sim.Sink[disksim.Completion]) (any, error) {
				return (&SlackRamp{Disk: e.disk, Thermal: e.th, BoostRPM: 24534, Initial: &e.warm,
					SampleEvery: 250 * time.Millisecond}).Run(sim.Collect(e.reqs))
			})
		}, "f21b3bfa529b1c8ee596d0fc383ba579f63b029bcea2b9f5966a44213178b5ab"},
		{"drpm/cold/batch", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, false, func(e env, _ sim.Sink[disksim.Completion]) (any, error) {
				return (&DRPM{Disk: e.disk, Thermal: e.th, Levels: levels}).Run(sim.Collect(e.reqs))
			})
		}, "ee3e6c8426cf036df5db82facf92f5622d058536d633109dc06b579b8b15929c"},
		{"drpm/hot/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&DRPM{Disk: e.disk, Thermal: e.th, Levels: levels, Initial: &e.hot, Ins: e.ins}).
					RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "18de50f092aa5fdcfe18231ca5fc2925d009e2758235bfb185f13242e4523baa"},
		{"drpm/warm/sample-every", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, false, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&DRPM{Disk: e.disk, Thermal: e.th, Levels: levels, Initial: &e.warm,
					SampleEvery: 250 * time.Millisecond}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "71251803cf445d41e32a961f2564afcb93c6cf8f2e24bb4fef0247bb3e20f842"},
		{"predictive/warm/vcm-only/batch", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, false, func(e env, _ sim.Sink[disksim.Completion]) (any, error) {
				return (&PredictiveController{Disk: e.disk, Thermal: e.th, Mode: VCMOnly, Initial: &e.warm}).
					Run(sim.Collect(e.reqs))
			})
		}, "760976acb2c689e9aca067bd96460f62dbcfa5c677c660f37ee7509768e2c1bb"},
		{"predictive/hot/vcm-and-rpm/faults/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&PredictiveController{Disk: e.disk, Thermal: e.th, Mode: VCMAndRPM, LowRPM: 15020,
					Predictive: Band{Engage: 0.5, Release: 2}, Reactive: Band{Engage: 0.05, Release: 1.5},
					Initial: &e.hot, Faults: seededFaults(0), Ins: e.ins}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "e9e48dcfb14bc9e9067cc05eb7df6ca124ff9ecd2d804c8da228dd64361f8bba"},
		{"predictive/warm/sample-every/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&PredictiveController{Disk: e.disk, Thermal: e.th, Mode: VCMOnly, Initial: &e.warm,
					SampleEvery: 250 * time.Millisecond, Ins: e.ins}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "83b647b76481f354aab802edd12d2b388264ec12e21f85dac85ed1dbe8740c82"},
		{"escalation/cold/batch", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, false, func(e env, _ sim.Sink[disksim.Completion]) (any, error) {
				return (&Escalation{Disk: e.disk, Thermal: e.th, Levels: levels}).Run(sim.Collect(e.reqs))
			})
		}, "c1703167483a7a49e7ec4edede2a9d529852e3e9e02a6692222f18eb9cfc14bc"},
		{"escalation/hot/faults/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&Escalation{Disk: e.disk, Thermal: e.th, Levels: levels, Initial: &e.hot,
					Faults: seededFaults(0), Ins: e.ins}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "dd1ff96d28546e7a1eb495f726d4b125cb5fdc94b93819df8b46330f399c302b"},
		{"escalation/warm/de-escalates/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 10, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&Escalation{Disk: e.disk, Thermal: e.th, Levels: levels, Initial: &e.warm,
					Hysteresis: 0.1, Ins: e.ins}).RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "24d56be0790c3a915590e8c83000d1e966dc23fbc1e13bf1133682a9dc69339f"},
		{"escalation/hot/disk-fails/sample-every/ins", func(t *testing.T) string {
			return stream(t, 24534, 3000, 120, true, func(e env, sink sim.Sink[disksim.Completion]) (any, error) {
				return (&Escalation{Disk: e.disk, Thermal: e.th, Levels: levels, Initial: &e.hot,
					Faults: seededFaults(1e11), SampleEvery: 250 * time.Millisecond, Ins: e.ins}).
					RunStream(sim.NewEngine(), e.reqs, sink)
			})
		}, "817aa78c7e78c9617a4fe7de23a22cf3d066eebb327eab9f86b3258b5e28aa13"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
