package stats

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"rubik/internal/stats/oracle"
)

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	x := make([]complex128, 3)
	if err := oracle.FFT(x); err == nil {
		t.Fatal("expected error for non-power-of-two size")
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,1,1,1] is [4,0,0,0].
	x := []complex128{1, 1, 1, 1}
	if err := oracle.FFT(x); err != nil {
		t.Fatal(err)
	}
	want := []complex128{4, 0, 0, 0}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	// FFT of a delta is all-ones.
	x = []complex128{1, 0, 0, 0, 0, 0, 0, 0}
	if err := oracle.FFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-1) > 1e-9 {
			t.Fatalf("FFT(delta)[%d] = %v, want 1", i, x[i])
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(9)) // 2..512
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		if err := oracle.FFT(x); err != nil {
			return false
		}
		if err := oracle.IFFT(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum |x|^2 = (1/n) sum |X|^2.
	r := rand.New(rand.NewSource(11))
	n := 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := oracle.FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for i := range x {
		freqEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestIterConvolutionsMatchesRepeatedDirect(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	mk := func(n int) PMF {
		p := make([]float64, n)
		var tot float64
		for i := range p {
			p[i] = r.Float64()
			tot += p[i]
		}
		for i := range p {
			p[i] /= tot
		}
		return PMF{Origin: 1.5, Width: 0.25, P: p}
	}
	s0 := mk(50)
	s := mk(128)
	const count = 16
	got, err := naiveChain(s0, s, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != count {
		t.Fatalf("got %d PMFs, want %d", len(got), count)
	}
	want := s0
	for i := 0; i < count; i++ {
		if math.Abs(got[i].Origin-want.Origin) > 1e-9 {
			t.Fatalf("i=%d origin %v, want %v", i, got[i].Origin, want.Origin)
		}
		if len(got[i].P) != len(want.P) {
			t.Fatalf("i=%d len %d, want %d", i, len(got[i].P), len(want.P))
		}
		for k := range want.P {
			if math.Abs(got[i].P[k]-want.P[k]) > 1e-8 {
				t.Fatalf("i=%d bucket %d: %v vs %v", i, k, got[i].P[k], want.P[k])
			}
		}
		if i < count-1 {
			next, err := naiveConvolve(want, s)
			if err != nil {
				t.Fatal(err)
			}
			want = next
		}
	}
}

func TestIterConvolutionsErrors(t *testing.T) {
	ok := PMF{Origin: 0, Width: 1, P: []float64{1}}
	if _, err := naiveChain(ok, ok, 0); err == nil {
		t.Fatal("expected error for count=0")
	}
	if _, err := naiveChain(PMF{}, ok, 4); err == nil {
		t.Fatal("expected error for empty s0")
	}
	bad := PMF{Origin: 0, Width: 3, P: []float64{1}}
	if _, err := naiveChain(ok, bad, 4); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestIterConvolutionsMoments(t *testing.T) {
	// Means and variances of S_i must follow E[S0]+i*E[S], var[S0]+i*var[S].
	s0 := PMF{Origin: 0, Width: 1, P: []float64{0.5, 0.25, 0.25}}
	s := PMF{Origin: 2, Width: 1, P: []float64{0.1, 0.6, 0.3}}
	out, err := naiveChain(s0, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range out {
		wantMean := s0.Mean() + float64(i)*s.Mean()
		wantVar := s0.Variance() + float64(i)*s.Variance()
		if !approxEqual(d.Mean(), wantMean, 1e-6) {
			t.Fatalf("i=%d mean %v, want %v", i, d.Mean(), wantMean)
		}
		if !approxEqual(d.Variance(), wantVar, 1e-6) {
			t.Fatalf("i=%d var %v, want %v", i, d.Variance(), wantVar)
		}
	}
}
