package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -5, 10, 2}, 0.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEq(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almostEq(got, 10) {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{2, 0, 8}); !almostEq(got, 4) {
		t.Errorf("GeoMean skipping zero = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
}

func TestAccuracy(t *testing.T) {
	var a Accuracy
	for i := 0; i < 93; i++ {
		a.Add(true)
	}
	for i := 0; i < 7; i++ {
		a.Add(false)
	}
	if !almostEq(a.Percent(), 93) {
		t.Errorf("Percent = %v", a.Percent())
	}
	if a.String() != "93.00%" {
		t.Errorf("String = %q", a.String())
	}
}

func TestClamp(t *testing.T) {
	if Clamp(15, -10, 10) != 10 || Clamp(-15, -10, 10) != -10 || Clamp(3, -10, 10) != 3 {
		t.Fatal("Clamp broken")
	}
}

func TestMedianPropertyBounds(t *testing.T) {
	// Median lies between min and max.
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true // avoid overflow in the even-length midpoint
			}
		}
		m := Median(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
