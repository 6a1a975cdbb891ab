package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two. The paper's runtime uses
// FFTs to accelerate the i-fold convolutions behind the target tail tables
// (Sec. 4.2: "We use 128-bucket distributions, and use FFTs to accelerate
// convolutions").
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
		return fmt.Errorf("stats: FFT size %d is not a power of two", n)
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

// IterConvolutions computes the distributions of S_i = s0 + i-fold sum of s
// for i = 0..count-1, sharing a single forward FFT of s across iterations.
// This is exactly the sequence of distributions Rubik's target tail tables
// need (Sec. 4.1: PS_i = PS_0 * PS * ... * PS).
func IterConvolutions(s0, s PMF, count int) ([]PMF, error) {
	if count <= 0 {
		return nil, fmt.Errorf("stats: IterConvolutions count must be positive")
	}
	if len(s0.P) == 0 || len(s.P) == 0 {
		return nil, fmt.Errorf("stats: IterConvolutions empty PMF")
	}
	if !widthsCompatible(s0.Width, s.Width) {
		return nil, fmt.Errorf("stats: IterConvolutions width mismatch: %g vs %g", s0.Width, s.Width)
	}
	maxLen := len(s0.P) + (count-1)*(len(s.P)-1)
	if maxLen < len(s0.P) {
		maxLen = len(s0.P)
	}
	n := nextPow2(maxLen)
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
