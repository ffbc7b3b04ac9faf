package reliability

import (
	"math"
	"testing"

	"repro/internal/units"
)

// samePow2 reports whether pow2(y) and math.Pow(2, y) are the same bits,
// counting any NaN equal to any NaN.
func samePow2(y float64) (got, want float64, ok bool) {
	got, want = pow2(y), math.Pow(2, y)
	if math.IsNaN(got) && math.IsNaN(want) {
		return got, want, true
	}
	return got, want, math.Float64bits(got) == math.Float64bits(want)
}

// TestPow2MatchesPow sweeps the exponent across every regime pow2
// handles itself: subnormal and underflowing results below −1022, the
// normal range, overflow above 1024, fractions on either side of the 0.5
// rounding point, and the doubling-law exponents of drive temperatures.
func TestPow2MatchesPow(t *testing.T) {
	check := func(y float64) {
		if got, want, ok := samePow2(y); !ok {
			t.Fatalf("pow2(%v) = %v (%#x), math.Pow = %v (%#x)",
				y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for y := -1100.0; y <= 1100; y += 0.0137 {
		check(y)
		check(math.Nextafter(y, 0))
	}
	for k := -1100; k <= 1100; k++ {
		for _, f := range []float64{0, 0.5, 0.25, 0.75} {
			y := float64(k) + f
			check(y)
			check(math.Nextafter(y, math.Inf(1)))
			check(math.Nextafter(y, math.Inf(-1)))
		}
	}
	m := Default()
	for c := -40.0; c <= 150; c += 0.001 {
		y := float64(units.Celsius(c)-m.reference()) / float64(m.doubling())
		check(y)
	}
}

// FuzzAccelerationAt is the differential target for the doubling law:
// pow2 must return math.Pow(2, y)'s exact bits for any y, and
// AccelerationAt the bits of the math.Pow formula it replaced.
func FuzzAccelerationAt(f *testing.F) {
	for _, y := range []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 1.5, -2.5,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 5e-324, -5e-324,
		-1022, -1022.5, -1073.9, -1074, -1074.3, -1074.5, -1074.7, -1075, -1075.2, -1076,
		1023, 1023.4, 1023.9, 1024, 1024.1, 1025,
		1 << 52, -(1 << 52), 1<<52 - 0.5, -(1<<52 - 0.5), 1 << 63, -(1 << 63),
		math.MaxFloat64, -math.MaxFloat64,
	} {
		f.Add(y)
	}
	m := Default()
	f.Fuzz(func(t *testing.T, y float64) {
		if got, want, ok := samePow2(y); !ok {
			t.Fatalf("pow2(%v) = %v (%#x), math.Pow = %v (%#x)",
				y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		c := units.Celsius(y)
		got := m.AccelerationAt(c)
		want := math.Pow(2, float64(c-m.reference())/float64(m.doubling()))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("AccelerationAt(%v) = %v, math.Pow formula = %v", c, got, want)
		}
	})
}

// BenchmarkAccelerationAt is the per-advance cost of the doubling law in
// the fleet's exposure accounting.
func BenchmarkAccelerationAt(b *testing.B) {
	m := Default()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.AccelerationAt(units.Celsius(30 + float64(i&1023)*0.01))
	}
	if sink == 0 {
		b.Fatal("no result")
	}
}
