// Package oracle holds the naive spectral chain the production tail-table
// pipeline replaced, kept as the reference the tests pin that pipeline
// against: sample binning by a fresh min/max scan, shift-and-rescale
// conditioning, direct O(n*m) convolution, a textbook radix-2 FFT, and
// the unpacked chain of i-fold convolutions built on it.
//
// Only _test.go files may import this package (TestOnlyTestsImportOracle
// enforces it). It does not import stats, so stats' own in-package tests
// can use it; PMF has stats.PMF's exact field layout instead, and callers
// convert between the two with stats.PMF(x) and oracle.PMF(x).
package oracle

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// PMF is a discrete probability mass function over equal-width buckets:
// bucket k covers [Origin + k*Width, Origin + (k+1)*Width). Its layout
// matches stats.PMF field for field.
type PMF struct {
	Origin float64
	Width  float64
	P      []float64
}

// NewPMFFromSamples builds an equal-width PMF with nbuckets buckets
// spanning [min(samples), max(samples)], scanning the samples in order.
// It returns a degenerate single-bucket PMF when all samples are equal.
// stats.Histogram.PMFInto must reproduce it bit for bit over the same
// window.
func NewPMFFromSamples(samples []float64, nbuckets int) (PMF, error) {
	if len(samples) == 0 {
		return PMF{}, fmt.Errorf("oracle: no samples")
	}
	if nbuckets <= 0 {
		return PMF{}, fmt.Errorf("oracle: nbuckets must be positive, got %d", nbuckets)
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return PMF{}, fmt.Errorf("oracle: sample is not finite: %v", s)
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi == lo {
		return PMF{Origin: lo, Width: 1, P: []float64{1}}, nil
	}
	// A span so wide that the width overflows, or so narrow that it
	// underflows to 0, leaves no bucket index to compute.
	w := (hi - lo) / float64(nbuckets)
	if !(w > 0) || math.IsInf(w, 0) {
		return PMF{}, fmt.Errorf("oracle: sample span [%g, %g] cannot be split into %d buckets", lo, hi, nbuckets)
	}
	p := make([]float64, nbuckets)
	inc := 1 / float64(len(samples))
	for _, s := range samples {
		k := int((s - lo) / w)
		if k >= nbuckets { // s == hi lands one past the end
			k = nbuckets - 1
		}
		p[k] += inc
	}
	return PMF{Origin: lo, Width: w, P: p}, nil
}

// ConditionAtLeast returns the distribution of X - omega given X > omega:
//
//	P[X0 = c] = P[X = c + omega | X > omega]
//
// the paper's shift-and-rescale model of the in-service request's
// remaining work (Sec. 4.1), into a fresh slice. Conditioning happens at
// a bucket boundary at or below omega; if omega exhausts the support, a
// degenerate one-bucket PMF is returned. stats.PMF.ConditionAtLeastInto
// must reproduce it bit for bit.
func (d PMF) ConditionAtLeast(omega float64) PMF {
	if len(d.P) == 0 {
		return d
	}
	if omega <= d.Origin {
		// No mass below omega: the remaining work is exactly X - omega.
		out := make([]float64, len(d.P))
		copy(out, d.P)
		return PMF{Origin: d.Origin - omega, Width: d.Width, P: out}
	}
	// The epsilon keeps conditioning exactly at a bucket boundary from
	// rounding down into the previous bucket.
	k := int((omega-d.Origin)/d.Width + 1e-9)
	if k >= len(d.P) {
		// All profiled mass elapsed; model one residual bucket of work.
		return PMF{Origin: 0, Width: d.Width, P: []float64{1}}
	}
	rest := make([]float64, len(d.P)-k)
	copy(rest, d.P[k:])
	var mass float64
	for _, v := range rest {
		mass += v
	}
	if mass <= 0 {
		return PMF{Origin: 0, Width: d.Width, P: []float64{1}}
	}
	for i := range rest {
		rest[i] /= mass
	}
	return PMF{Origin: 0, Width: d.Width, P: rest}
}

// Convolve returns the distribution of the sum of two independent
// variables with matching bucket widths, computed directly (O(n*m)).
//
// Bucket masses represent midpoints, so summing bucket i of a with bucket
// j of b yields the lattice point a.Origin+b.Origin+(i+j+1)*Width; the
// result origin carries the extra half-width so that midpoints (and
// therefore means and variances) add exactly.
func Convolve(a, b PMF) (PMF, error) {
	if len(a.P) == 0 || len(b.P) == 0 {
		return PMF{}, fmt.Errorf("oracle: convolve empty PMF")
	}
	if !widthsCompatible(a.Width, b.Width) {
		return PMF{}, fmt.Errorf("oracle: convolve width mismatch: %g vs %g", a.Width, b.Width)
	}
	out := make([]float64, len(a.P)+len(b.P)-1)
	for i, pa := range a.P {
		if pa == 0 {
			continue
		}
		for j, pb := range b.P {
			out[i+j] += pa * pb
		}
	}
	return PMF{Origin: a.Origin + b.Origin + a.Width/2, Width: a.Width, P: out}, nil
}

func widthsCompatible(w1, w2 float64) bool {
	if w1 == w2 {
		return true
	}
	d := math.Abs(w1 - w2)
	return d <= 1e-9*math.Max(math.Abs(w1), math.Abs(w2))
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two. Its twiddle recurrence
// is the one stats.NewPackedConvolutionPlan tabulates.
func FFT(x []complex128) error {
	return fft(x, false)
}

// IFFT computes the inverse FFT of x in place, including the 1/n scaling.
func IFFT(x []complex128) error {
	return fft(x, true)
}

func fft(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("oracle: FFT size %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// IterConvolutions computes the distributions of S_i = s0 + i-fold sum of
// s for i = 0..count-1, sharing a single forward FFT of s across
// iterations: the sequence of distributions Rubik's target tail tables
// need (Sec. 4.1: PS_i = PS_0 * PS * ... * PS), with each chain
// transformed as a full complex signal at full size.
func IterConvolutions(s0, s PMF, count int) ([]PMF, error) {
	if count <= 0 {
		return nil, fmt.Errorf("oracle: IterConvolutions count must be positive")
	}
	if len(s0.P) == 0 || len(s.P) == 0 {
		return nil, fmt.Errorf("oracle: IterConvolutions empty PMF")
	}
	if !widthsCompatible(s0.Width, s.Width) {
		return nil, fmt.Errorf("oracle: IterConvolutions width mismatch: %g vs %g", s0.Width, s.Width)
	}
	maxLen := len(s0.P) + (count-1)*(len(s.P)-1)
	if maxLen < len(s0.P) {
		maxLen = len(s0.P)
	}
	n := 1
	if maxLen > 1 {
		n = 1 << uint(bits.Len(uint(maxLen-1)))
	}
	fs := make([]complex128, n)
	// When count == 1 the output is just s0 and fs is never multiplied in;
	// skipping it also matters for correctness, since n is sized for the
	// chain and can be smaller than len(s.P) in that case.
	if count > 1 {
		for i, v := range s.P {
			fs[i] = complex(v, 0)
		}
		if err := FFT(fs); err != nil {
			return nil, err
		}
	}
	acc := make([]complex128, n)
	for i, v := range s0.P {
		acc[i] = complex(v, 0)
	}
	if err := FFT(acc); err != nil {
		return nil, err
	}

	out := make([]PMF, count)
	scratch := make([]complex128, n)
	for i := 0; i < count; i++ {
		copy(scratch, acc)
		if err := IFFT(scratch); err != nil {
			return nil, err
		}
		length := len(s0.P) + i*(len(s.P)-1)
		p := make([]float64, length)
		for k := 0; k < length; k++ {
			v := real(scratch[k])
			if v < 0 {
				v = 0
			}
			p[k] = v
		}
		out[i] = PMF{
			// Each convolution adds s.Origin plus the half-width midpoint
			// correction (see Convolve).
			Origin: s0.Origin + float64(i)*(s.Origin+s0.Width/2),
			Width:  s0.Width,
			P:      p,
		}
		if i < count-1 {
			for k := range acc {
				acc[k] *= fs[k]
			}
		}
	}
	return out, nil
}
