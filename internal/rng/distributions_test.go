package rng

import (
	"math"
	"testing"
)

// moments draws n samples and returns their sample mean and variance.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sum2 += v * v
	}
	mean = sum / float64(n)
	variance = sum2/float64(n) - mean*mean
	return mean, variance
}

func TestExponentialMoments(t *testing.T) {
	r := New(101)
	const mu = 1.0
	mean, variance := moments(200000, func() float64 { return Exponential(r, mu) })
	if math.Abs(mean-mu) > 0.02 {
		t.Errorf("exponential mean = %v, want ~%v", mean, mu)
	}
	if math.Abs(variance-mu*mu) > 0.05 {
		t.Errorf("exponential variance = %v, want ~%v", variance, mu*mu)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := New(55)
	for i := 0; i < 100000; i++ {
		if v := Exponential(r, 2.5); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("bad exponential sample: %v", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(7)
	lo, hi := 3.0, 9.0
	mean, variance := moments(200000, func() float64 { return Uniform(r, lo, hi) })
	if math.Abs(mean-6.0) > 0.02 {
		t.Errorf("uniform mean = %v, want ~6", mean)
	}
	wantVar := (hi - lo) * (hi - lo) / 12
	if math.Abs(variance-wantVar) > 0.06 {
		t.Errorf("uniform variance = %v, want ~%v", variance, wantVar)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 100000; i++ {
		v := Uniform(r, -2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	mean, variance := moments(200000, func() float64 { return Normal(r, 10, 3) })
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-9) > 0.2 {
		t.Errorf("normal variance = %v, want ~9", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(10)
	cases := []struct{ shape, scale float64 }{
		{1, 1}, {2, 0.5}, {7.5, 2}, {0.5, 1}, {100, 1},
	}
	for _, c := range cases {
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		mean, variance := moments(200000, func() float64 { return Gamma(r, c.shape, c.scale) })
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.02 {
			t.Errorf("gamma(%v,%v) mean = %v, want ~%v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.12*wantVar+0.05 {
			t.Errorf("gamma(%v,%v) variance = %v, want ~%v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(-1, 1) did not panic")
		}
	}()
	Gamma(New(1), -1, 1)
}

// TestGammaMatchesErlangSum verifies the core fast-path claim: Gamma(k, mu)
// and the sum of k exponentials of mean mu agree in distribution. We
// compare means and variances of the two samplers.
func TestGammaMatchesErlangSum(t *testing.T) {
	const k, mu = 64, 1.0
	r1, r2 := New(1234), New(5678)
	gMean, gVar := moments(50000, func() float64 { return Gamma(r1, k, mu) })
	eMean, eVar := moments(50000, func() float64 { return ErlangSum(r2, k, mu) })
	if math.Abs(gMean-eMean) > 0.01*eMean {
		t.Errorf("gamma mean %v vs erlang mean %v", gMean, eMean)
	}
	if math.Abs(gVar-eVar) > 0.1*eVar {
		t.Errorf("gamma variance %v vs erlang variance %v", gVar, eVar)
	}
	if math.Abs(eMean-k*mu) > 0.05*k*mu {
		t.Errorf("erlang mean %v, want ~%v", eMean, k*mu)
	}
}

func TestErlangSumZeroTasks(t *testing.T) {
	if v := ErlangSum(New(1), 0, 1); v != 0 {
		t.Fatalf("ErlangSum(0) = %v, want 0", v)
	}
}

func BenchmarkErand48(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Erand48()
	}
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = Exponential(r, 1)
	}
}

func BenchmarkGammaLargeShape(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = Gamma(r, 512, 1)
	}
}
