package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSumSkipsNaN(t *testing.T) {
	got := Sum([]float64{1, math.NaN(), 2})
	if got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{2, 4, math.NaN(), 6})
	if err != nil || got != 4 {
		t.Fatalf("Mean = %v, %v", got, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Mean([]float64{math.NaN()}); err != ErrEmpty {
		t.Fatalf("Mean(NaN) err = %v, want ErrEmpty", err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	v, err := Variance([]float64{1, 1, 1})
	if err != nil || v != 0 {
		t.Fatalf("Variance = %v, %v", v, err)
	}
	v, err = Variance([]float64{0, 2})
	if err != nil || v != 1 {
		t.Fatalf("Variance = %v, want 1", v)
	}
	sd, err := StdDev([]float64{0, 2})
	if err != nil || sd != 1 {
		t.Fatalf("StdDev = %v, want 1", sd)
	}
	if _, err := Variance(nil); err == nil {
		t.Fatal("want error for empty variance")
	}
	if _, err := StdDev(nil); err == nil {
		t.Fatal("want error for empty stddev")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, math.NaN(), -1, 7})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v,%v", lo, hi, err)
	}
	if _, _, err := MinMax([]float64{math.NaN()}); err != ErrEmpty {
		t.Fatalf("MinMax err = %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	q, err := Quantile(xs, 0.5)
	if err != nil || q != 3 {
		t.Fatalf("median = %v, %v", q, err)
	}
	q, err = Quantile(xs, 0)
	if err != nil || q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	q, err = Quantile(xs, 1)
	if err != nil || q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	q, err = Quantile([]float64{1, 2}, 0.25)
	if err != nil || q != 1.25 {
		t.Fatalf("interpolated quantile = %v", q)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
	if q, err := Quantile([]float64{7}, 0.9); err != nil || q != 7 {
		t.Fatalf("singleton quantile = %v, %v", q, err)
	}
}

func TestZScore(t *testing.T) {
	z, err := ZScore(0.95)
	if err != nil || math.Abs(z-1.959964) > 1e-4 {
		t.Fatalf("ZScore(0.95) = %v, %v", z, err)
	}
	z, err = ZScore(0.99)
	if err != nil || math.Abs(z-2.575829) > 1e-4 {
		t.Fatalf("ZScore(0.99) = %v", z)
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, err := ZScore(bad); err == nil {
			t.Fatalf("ZScore(%v) should fail", bad)
		}
	}
}

func TestNormalCDF(t *testing.T) {
	if math.Abs(NormalCDF(0)-0.5) > 1e-12 {
		t.Fatalf("CDF(0) = %v", NormalCDF(0))
	}
	if math.Abs(NormalCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("CDF(1.96) = %v", NormalCDF(1.96))
	}
}

// ZScore and NormalCDF are inverses: P(|Z| <= ZScore(c)) == c.
func TestZScoreCDFInverseProperty(t *testing.T) {
	f := func(u float64) bool {
		c := math.Mod(math.Abs(u), 0.98) + 0.01 // confidence in (0.01, 0.99)
		z, err := ZScore(c)
		if err != nil {
			return false
		}
		got := NormalCDF(z) - NormalCDF(-z)
		return math.Abs(got-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Laplace(rng, 5, 0); got != 5 {
		t.Fatalf("Laplace(mu,0) = %v, want mu", got)
	}
}

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	const mu, b = 3.0, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, mu, b)
		sum += x
		sumSq += (x - mu) * (x - mu)
	}
	mean := sum / n
	variance := sumSq / n
	if math.Abs(mean-mu) > 0.05 {
		t.Fatalf("sample mean = %v, want ~%v", mean, mu)
	}
	if math.Abs(variance-LaplaceVariance(b)) > 0.3 {
		t.Fatalf("sample variance = %v, want ~%v", variance, LaplaceVariance(b))
	}
}

func TestLaplaceMedianIsMu(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Laplace(rng, -1, 3)
	}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-(-1)) > 0.08 {
		t.Fatalf("median = %v, want ~-1", med)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v", got)
	}
	if got := RelativeError(-11, -10); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("negative want = %v", got)
	}
}

func TestMeanFinite(t *testing.T) {
	got, err := MeanFinite([]float64{1, math.Inf(1), 3, math.NaN()})
	if err != nil || got != 2 {
		t.Fatalf("MeanFinite = %v, %v", got, err)
	}
	if _, err := MeanFinite([]float64{math.Inf(1)}); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
}

// Property: RelativeError is scale-invariant for positive scales.
func TestRelativeErrorScaleInvariant(t *testing.T) {
	f := func(got, want, scale float64) bool {
		if want == 0 || math.IsNaN(got) || math.IsNaN(want) || math.IsNaN(scale) {
			return true
		}
		if math.IsInf(got, 0) || math.IsInf(want, 0) || math.IsInf(scale, 0) {
			return true
		}
		// Clamp magnitudes so got*s and want*s cannot overflow.
		got = math.Mod(got, 1e6)
		want = math.Mod(want, 1e6)
		if want == 0 {
			return true
		}
		s := math.Mod(math.Abs(scale), 1e3) + 1
		a := RelativeError(got, want)
		b := RelativeError(got*s, want*s)
		if math.IsInf(a, 0) || a == 0 {
			return true
		}
		return math.Abs(a-b)/a < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// varianceThreePass is the original Variance: Mean, then a second Mean
// inside the deviation pass. MeanVariance must reproduce it bit for bit.
func varianceThreePass(xs []float64) (float64, float64, error) {
	mean, err := Mean(xs)
	if err != nil {
		return 0, 0, err
	}
	m, err := Mean(xs)
	if err != nil {
		return 0, 0, err
	}
	var ss float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - m
		ss += d * d
		n++
	}
	return mean, ss / float64(n), nil
}

func TestMeanVarianceBitwiseEqualsMeanThenVariance(t *testing.T) {
	nan := math.NaN()
	rng := rand.New(rand.NewSource(3))
	holed := make([]float64, 1001)
	for i := range holed {
		holed[i] = rng.NormFloat64()*1e3 + 7
		if i%7 == 0 {
			holed[i] = nan
		}
	}
	cases := map[string][]float64{
		"empty":        {},
		"nil":          nil,
		"all-nan":      {nan, nan},
		"single":       {0.1},
		"single+nan":   {nan, 3.3, nan},
		"nan-holed":    holed,
		"tiny+huge":    {1e-300, 1e300, -1e300, 3},
		"constant-odd": {0.1, 0.1, 0.1},
	}
	for name, xs := range cases {
		wm, wv, werr := varianceThreePass(xs)
		m, v, err := MeanVariance(xs)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: err = %v, want %v", name, err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrEmpty) {
				t.Fatalf("%s: err = %v, want ErrEmpty", name, err)
			}
			continue
		}
		if math.Float64bits(m) != math.Float64bits(wm) || math.Float64bits(v) != math.Float64bits(wv) {
			t.Fatalf("%s: MeanVariance = (%x, %x), want (%x, %x)", name,
				math.Float64bits(m), math.Float64bits(v), math.Float64bits(wm), math.Float64bits(wv))
		}
		if vv, _ := Variance(xs); math.Float64bits(vv) != math.Float64bits(wv) {
			t.Fatalf("%s: Variance = %x, want %x", name, math.Float64bits(vv), math.Float64bits(wv))
		}
	}
}
