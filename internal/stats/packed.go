package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// PackedConvolutionPlan is the packed real-FFT pipeline behind the tail
// table rebuild. The rebuild's two convolution chains (compute cycles and
// memory time) are self-convolutions of *purely real* PMFs, which the
// naive IterConvolutions transforms as full complex signals with
// identically zero imaginary parts — half the arithmetic moves zeros
// around. The packed plan exploits realness twice:
//
//   - Pair packing. Both chains share one transform grid, so the two
//     input PMFs ride one complex signal z = distC + i*distM: a single
//     forward FFT yields both spectra, split by conjugate symmetry
//     (spectra of real signals are Hermitian, X[n-k] = conj(X[k])), and
//     each row's two inverse transforms fuse into one — the inverse of
//     specC_row + i*specM_row carries the real C row in its real part and
//     the M row in its imaginary part.
//
//   - Hermitian half-spectra. Because every spectrum in the pipeline is
//     Hermitian (pointwise products of Hermitian sequences stay
//     Hermitian), the per-row power step acc[k] *= spec[k] and the
//     spectrum storage keep only the n/2+1 non-redundant bins, halving
//     the pointwise work and memory traffic.
//
// On top of the symmetry tricks the plan prunes each row's inverse
// transform to the smallest power of two covering that row's output:
// row i of the chain has exact support len0 + i*(len0-1) <= n, so
// decimating the accumulated spectrum by n/ni and inverting at size ni
// aliases the signal mod ni — exact for a signal that fits in ni. Early
// rows invert at 1/16th the full transform size.
//
// Net transform count for the paper-shape rebuild (128 buckets, 16 queue
// positions, two chains): 36 full-size complex transforms for two naive
// chains vs 1 forward + 16 size-pruned inverses here. Start and RowInto
// split the pass so a caller pays the forward transform and each row's
// inverse only when it needs a row. Row 0 is the inputs themselves (up
// to the round trip's ulp noise), so a caller that reads row 0 straight
// off c and m, as the tail-table builder does, needs Start only once it
// reads row 1 or later.
//
// The packed pipeline is not bitwise-equal to the naive chains: packed
// butterflies and pruned inverses round differently at the ulp level.
// Results agree with IterConvolutions, the oracle, within a tight
// relative error bound (see the property and fuzz tests: ~1e-12 of each
// row's total mass, contract <= 1e-9), and the pipeline is fully
// deterministic — same inputs, same bits, on every run and every shard.
//
// A plan owns its scratch buffers and is therefore NOT safe for
// concurrent use; each table builder holds its own.
type PackedConvolutionPlan struct {
	n int
	// Flattened per-stage twiddles (stage with half-size h at
	// [h-1 : 2h-1]). Twiddles depend only on the stage, not the transform
	// size, so the same tables drive the full-size forward transform and
	// every pruned inverse size.
	fwd, inv []complex128
	// revs caches one bit-reversal permutation per transform size used
	// (the full size plus each pruned inverse size), built on first use
	// so steady-state rebuilds allocate nothing.
	revs map[int][]int
	// Half-spectra (n/2+1 bins): specC/specM hold the forward spectra of
	// the two inputs, accC/accM the accumulated per-row spectra.
	specC, specM, accC, accM []complex128
	// z is the full-size complex scratch: the packed signal during the
	// forward transform, then each row's fused inverse input/output.
	z []complex128

	// The chain pair begun by Start: both inputs' geometry and bucket
	// counts, the row count, and row, the chain row accC/accM currently
	// hold (-1 before the first Start or after a failed one).
	cOrigin, cWidth, mOrigin, mWidth float64
	nc, nm, count, row               int
}

// NewPackedConvolutionPlan builds a packed plan for transforms of size n
// (a power of two).
func NewPackedConvolutionPlan(n int) (*PackedConvolutionPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("stats: packed plan size %d is not a power of two", n)
	}
	p := &PackedConvolutionPlan{
		n:     n,
		revs:  map[int][]int{},
		specC: make([]complex128, n/2+1),
		specM: make([]complex128, n/2+1),
		accC:  make([]complex128, n/2+1),
		accM:  make([]complex128, n/2+1),
		z:     make([]complex128, n),
		row:   -1,
	}
	if n > 1 {
		p.fwd = make([]complex128, n-1)
		p.inv = make([]complex128, n-1)
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			// Same recurrence as fft(), so shared-stage transforms start
			// from identical twiddle bits.
			step := 2 * math.Pi / float64(size)
			wf := complex(1, 0)
			wi := complex(1, 0)
			wfBase := cmplx.Exp(complex(0, -step))
			wiBase := cmplx.Exp(complex(0, step))
			for k := 0; k < half; k++ {
				p.fwd[half-1+k] = wf
				p.inv[half-1+k] = wi
				wf *= wfBase
				wi *= wiBase
			}
		}
	}
	return p, nil
}

// Size returns the transform size the plan was built for.
func (p *PackedConvolutionPlan) Size() int { return p.n }

// revFor returns the bit-reversal permutation for transform size m,
// building and caching it on first use.
func (p *PackedConvolutionPlan) revFor(m int) []int {
	if rev, ok := p.revs[m]; ok {
		return rev
	}
	rev := make([]int, m)
	if m > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(m)))
		for i := 0; i < m; i++ {
			rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	p.revs[m] = rev
	return rev
}

// PlanSizeFor returns the transform size a chain of count convolutions of
// an s0Len-bucket PMF with an sLen-bucket PMF needs: the smallest power
// of two covering the longest row, exactly as IterConvolutions sizes it.
func PlanSizeFor(s0Len, sLen, count int) int {
	maxLen := s0Len + (count-1)*(sLen-1)
	if maxLen < s0Len {
		maxLen = s0Len
	}
	return nextPow2(maxLen)
}

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// PackedPlanSizeFor returns the unified transform size the packed
// pipeline uses for the pair of self-convolution chains of a cLen-bucket
// and an mLen-bucket PMF over count queue positions — the size to pass
// to NewPackedConvolutionPlan. It is the larger of the two per-chain
// PlanSizeFor sizes, so a degenerate (e.g. single-bucket) chain rides
// the other chain's grid.
func PackedPlanSizeFor(cLen, mLen, count int) int {
	nc := PlanSizeFor(cLen, cLen, count)
	nm := PlanSizeFor(mLen, mLen, count)
	if nm > nc {
		return nm
	}
	return nc
}

// IterSelfConvolutionsInto computes both of the rebuild's convolution
// chains in one packed pass: dstC[i] receives the distribution of
// c + i-fold sum of c, dstM[i] the distribution of m + i-fold sum of m,
// for i = 0..len(dstC)-1 — the packed counterpart of
// IterConvolutions(c, c, n) plus IterConvolutions(m, m, n). The two PMFs
// need not share lengths or widths (the chains are independent; they
// only share transforms). Destination backing arrays are reused when
// capacity allows; with warm buffers the call performs zero allocations.
// The plan must have been built for exactly PackedPlanSizeFor(len(c.P),
// len(m.P), len(dstC)).
//
// It is Start followed by RowInto for every row, so a caller that needs
// only a prefix of the rows gets the same bits from those two calls.
// Results match the naive chains within the packed pipeline's relative
// error bound; they are not bitwise-equal (see the type comment).
func (p *PackedConvolutionPlan) IterSelfConvolutionsInto(dstC, dstM []PMF, c, m PMF) error {
	if len(dstM) != len(dstC) {
		return fmt.Errorf("stats: IterSelfConvolutions dst lengths differ: %d vs %d", len(dstC), len(dstM))
	}
	if err := p.Start(c, m, len(dstC)); err != nil {
		return err
	}
	for i := range dstC {
		if err := p.RowInto(i, &dstC[i], &dstM[i]); err != nil {
			return err
		}
	}
	return nil
}

// Start begins a chain pair of count rows over c and m: it packs both
// real inputs into one complex signal, runs the single full-size forward
// transform and splits the result into the two Hermitian half-spectra.
// Rows are then produced on demand by RowInto. The plan must have been
// built for exactly PackedPlanSizeFor(len(c.P), len(m.P), count). Start
// keeps c's and m's geometry but not their buckets, so the caller may
// reuse them once it returns.
func (p *PackedConvolutionPlan) Start(c, m PMF, count int) error {
	p.row = -1
	if count <= 0 {
		return fmt.Errorf("stats: IterSelfConvolutions count must be positive")
	}
	if len(c.P) == 0 || len(m.P) == 0 {
		return fmt.Errorf("stats: IterSelfConvolutions empty PMF")
	}
	if want := PackedPlanSizeFor(len(c.P), len(m.P), count); want != p.n {
		return fmt.Errorf("stats: packed plan size %d, chain pair needs %d", p.n, want)
	}
	n := p.n

	// Pack both real inputs into one complex signal z = c + i*m and take
	// a single full-size forward transform.
	z := p.z
	for i := range z {
		z[i] = 0
	}
	for i, v := range c.P {
		z[i] = complex(v, 0)
	}
	for i, v := range m.P {
		z[i] = complex(real(z[i]), v)
	}
	rev := p.revFor(n)
	for i, j := range rev {
		if j > i {
			z[i], z[j] = z[j], z[i]
		}
	}
	fftStages(z, p.fwd)

	// Split the packed spectrum by conjugate symmetry into the two
	// Hermitian half-spectra: with Z = FFT(c + i*m),
	//
	//	specC[k] = (Z[k] + conj(Z[n-k])) / 2
	//	specM[k] = (Z[k] - conj(Z[n-k])) / (2i)
	//
	// Only bins 0..n/2 are kept; the rest are their conjugate mirrors.
	// Bins 0 and n/2 are self-mirrored, so their imaginary parts come
	// out exactly zero — the half-spectra are exactly Hermitian, not
	// merely approximately, and stay so under pointwise products.
	for k := 0; k <= n/2; k++ {
		zk := z[k]
		zn := z[(n-k)&(n-1)]
		a, b := real(zk), imag(zk)
		cr, ci := real(zn), imag(zn)
		p.specC[k] = complex((a+cr)/2, (b-ci)/2)
		p.specM[k] = complex((b+ci)/2, (cr-a)/2)
	}
	// Both chains self-convolve (s0 == s), so the accumulators start as
	// the spectra themselves: row 0.
	copy(p.accC, p.specC)
	copy(p.accM, p.specM)
	p.cOrigin, p.cWidth, p.nc = c.Origin, c.Width, len(c.P)
	p.mOrigin, p.mWidth, p.nm = m.Origin, m.Width, len(m.P)
	p.count = count
	p.row = 0
	return nil
}

// RowInto writes row i of the chain pair begun by Start into dstC and
// dstM, reusing their backing arrays when capacity allows. The
// accumulated spectra only move forward, so i may not precede the last
// row produced; rows skipped on the way cost one half-spectrum power step
// each and no inverse transform. Each row is bitwise the row
// IterSelfConvolutionsInto would produce.
func (p *PackedConvolutionPlan) RowInto(i int, dstC, dstM *PMF) error {
	if p.row < 0 {
		return fmt.Errorf("stats: packed row %d requested before Start", i)
	}
	if i < p.row || i >= p.count {
		return fmt.Errorf("stats: packed row %d outside [%d, %d)", i, p.row, p.count)
	}
	n := p.n
	// Half-spectrum power steps: both accumulators advance one
	// convolution per step over the n/2+1 non-redundant bins only. The
	// common-length subslices let the compiler drop the bounds checks.
	accC := p.accC[:n/2+1]
	accM, specC, specM := p.accM[:len(accC)], p.specC[:len(accC)], p.specM[:len(accC)]
	for ; p.row < i; p.row++ {
		for k := range accC {
			accC[k] *= specC[k]
			accM[k] *= specM[k]
		}
	}
	nc, nm := p.nc, p.nm
	lc := nc + i*(nc-1)
	lm := nm + i*(nm-1)
	// Pruned inverse: row i has exact support max(lc, lm), so a
	// transform of the smallest covering power of two ni suffices —
	// decimating the spectrum by d = n/ni aliases the row mod ni,
	// which is exact for a signal of support <= ni.
	l := lc
	if lm > l {
		l = lm
	}
	ni := nextPow2(l)
	d := n / ni
	hi := ni / 2
	w := p.z[:ni]
	// Assemble the fused natural-order spectrum w = accC + i*accM
	// from the decimated half-spectra; the upper half comes from
	// Hermitian symmetry, w[ni-k] = conj(accC[k*d] - i*accM[k*d]).
	for k := 0; k <= hi; k++ {
		ac, am := p.accC[k*d], p.accM[k*d]
		w[k] = complex(real(ac)-imag(am), imag(ac)+real(am))
	}
	for k := 1; k < hi; k++ {
		ac, am := p.accC[k*d], p.accM[k*d]
		w[ni-k] = complex(real(ac)+imag(am), real(am)-imag(ac))
	}
	rev := p.revFor(ni)
	for a2, b2 := range rev {
		if b2 > a2 {
			w[a2], w[b2] = w[b2], w[a2]
		}
	}
	fftStages(w, p.inv)
	// One fused inverse: the C row is the real part, the M row the
	// imaginary part. The 1/ni scaling folds into the extraction.
	invN := 1 / float64(ni)
	bufC := fitFloats(dstC.P, lc)
	for k := 0; k < lc; k++ {
		v := real(w[k]) * invN
		if v < 0 { // numeric noise
			v = 0
		}
		bufC[k] = v
	}
	bufM := fitFloats(dstM.P, lm)
	for k := 0; k < lm; k++ {
		v := imag(w[k]) * invN
		if v < 0 { // numeric noise
			v = 0
		}
		bufM[k] = v
	}
	*dstC = PMF{
		// Each convolution adds the origin plus the half-width
		// midpoint correction (see Convolve).
		Origin: p.cOrigin + float64(i)*(p.cOrigin+p.cWidth/2),
		Width:  p.cWidth,
		P:      bufC,
	}
	*dstM = PMF{
		Origin: p.mOrigin + float64(i)*(p.mOrigin+p.mWidth/2),
		Width:  p.mWidth,
		P:      bufM,
	}
	return nil
}

// fitFloats returns buf resized to n, reusing its backing array when the
// capacity allows.
func fitFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// fftStages runs the radix-2 butterfly cascade over an already
// bit-reversed x, for any power-of-two len(x). The twiddle layout is the
// plan layout (stage with half-size h at tw[h-1:2h-1]); because a stage's
// twiddles exp(±i*pi*k/h) do not depend on the transform size, one table
// built for size n serves every smaller power of two too — the decimated
// inverse transforms lean on that.
func fftStages(x []complex128, tw []complex128) {
	n := len(x)
	// Every specialization below performs the identical floating-point
	// operations in the identical order as the plain nested loop of fft()
	// (including the multiplications by the unit twiddle, whose skipping
	// could flip signed zeros).
	if n >= 2 {
		// size == 2: one butterfly per block; a block loop with subslices
		// would spend more time slicing than computing.
		w := tw[0]
		for s := 1; s < n; s += 2 {
			a := x[s-1]
			b := x[s] * w
			x[s-1] = a + b
			x[s] = a - b
		}
	}
	if n >= 4 {
		// size == 4: two butterflies per block, twiddles held in registers.
		w0, w1 := tw[1], tw[2]
		for s := 3; s < n; s += 4 {
			a := x[s-3]
			b := x[s-1] * w0
			x[s-3] = a + b
			x[s-1] = a - b
			a = x[s-2]
			b = x[s] * w1
			x[s-2] = a + b
			x[s] = a - b
		}
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		ws := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += size {
			// Per-block subslices let the compiler drop the bounds checks
			// in the butterfly: every index is bounded by len(xa).
			xa := x[start : start+half]
			xb := x[start+half : start+size][:len(xa)]
			wk := ws[:len(xa)]
			for k := range xa {
				a := xa[k]
				b := xb[k] * wk[k]
				xa[k] = a + b
				xb[k] = a - b
			}
		}
	}
}
