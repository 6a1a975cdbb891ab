package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// PackedConvolutionPlan is the packed real-FFT pipeline behind the tail
// table rebuild. The rebuild's two convolution chains (compute cycles and
// memory time) are self-convolutions of *purely real* PMFs, which the
// naive chain (the test oracle) transforms as full complex signals with
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
// The forward transform is pruned the same way: a row inverted at size
// ni reads only the spectrum bins at multiples of d = n/ni, so the
// forward computes only those (see forward), skipping the leading
// butterfly stages that merely copy samples across zero padding. A
// deeper row that needs a finer stride re-runs the pruned forward at
// that stride. Every bin the pruned forward computes is bitwise the
// full transform's, so pruning changes no row.
//
// Net transform count for the paper-shape rebuild (128 buckets, 16 queue
// positions, two chains): 36 full-size complex transforms for two naive
// chains vs 16 size-pruned inverses and one pruned forward per stride
// (8, 4, 2 and 1) here. Start only packs the inputs, and RowInto runs
// the forward and each row's inverse only when a caller needs that row.
// Row 0 is the inputs themselves (up to the round trip's ulp noise), so
// a caller that reads row 0 straight off c and m, as the tail-table
// builder does, needs Start only once it reads row 1 or later. A reader
// that stops at row 3 pays the stride-8 and stride-4 forwards: 896 and
// 1,792 butterflies against the full transform's 11,264.
//
// The packed pipeline is not bitwise-equal to the naive chains: packed
// butterflies and pruned inverses round differently at the ulp level.
// Results agree with the naive chain, the oracle, within a tight
// relative error bound (see the property and fuzz tests: ~1e-12 of each
// row's total mass, contract <= 1e-9), and the pipeline is fully
// deterministic — same inputs, same bits, on every run and every shard.
//
// A plan owns its scratch buffers and is therefore NOT safe for
// concurrent use; each table builder holds its own. The constant tables
// it reads (twiddles and bit-reversal permutations) are shared by every
// plan in the process; see fftTables.
type PackedConvolutionPlan struct {
	n int
	// Flattened per-stage twiddles (stage with half-size h at
	// [h-1 : 2h-1]): the first n-1 entries of the process-wide tables.
	// Twiddles depend only on the stage, not the transform size, so the
	// same tables drive the full-size forward transform and every pruned
	// inverse size.
	fwd, inv []complex128
	// revs holds the shared bit-reversal permutation of each pruned
	// inverse size this plan has run, fetched on first use, so RowInto
	// takes no lock and steady-state rebuilds allocate nothing.
	revs map[int][]int
	// Half-spectra (n/2+1 bins): specC/specM hold the forward spectra of
	// the two inputs, accC/accM the accumulated per-row spectra. Only the
	// bins at multiples of stride are valid.
	specC, specM, accC, accM []complex128
	// z is the full-size complex scratch: the forward transform's work
	// array, then each row's fused inverse input/output.
	z []complex128
	// in is the packed input c + i*m, zero-padded to a power of two, and
	// zeros[k] is what the forward's copy-only stages add to a sample at
	// offset k of its block (see forward). They share pad, which Start
	// grows to len(in) + len(zeros) on first need. len(in) * len(zeros)
	// == n, so 128-bucket inputs in a 2,048-point plan need 144 entries;
	// only inputs that fill the whole transform need n+1.
	pad, in, zeros []complex128

	// The chain pair begun by Start: both inputs' geometry and bucket
	// counts, the row count, row, the chain row accC/accM currently hold
	// (-1 before the first Start or after a failed one), and stride, the
	// bin stride of the spectra computed so far (0 before the first
	// forward transform of the pair).
	cOrigin, cWidth, mOrigin, mWidth float64
	nc, nm, count, row, stride       int
}

// fftTables holds the FFT constants every plan in the process shares:
// one grow-only pair of flattened twiddle tables, covering the largest
// transform size built so far, and one bit-reversal permutation per
// transform size. Growing builds new tables and never writes published
// ones, so a plan reads its prefix without the lock. The cost is
// retention: the tables of the largest size ever built stay reachable
// for the process lifetime.
var fftTables struct {
	mu       sync.Mutex
	fwd, inv []complex128
	revs     map[int][]int
}

// sharedTwiddles returns the forward and inverse twiddle tables for
// transforms of size n (a power of two), growing the process-wide tables
// when n exceeds every size built before.
func sharedTwiddles(n int) (fwd, inv []complex128) {
	fftTables.mu.Lock()
	defer fftTables.mu.Unlock()
	if have := len(fftTables.fwd); have < n-1 {
		fwd = make([]complex128, n-1)
		inv = make([]complex128, n-1)
		copy(fwd, fftTables.fwd)
		copy(inv, fftTables.inv)
		// The old tables cover sizes up to have+1; build the stages above.
		for size := 2 * (have + 1); size <= n; size <<= 1 {
			half := size >> 1
			// Same recurrence as the naive oracle FFT, so shared-stage
			// transforms start from identical twiddle bits.
			step := 2 * math.Pi / float64(size)
			wf := complex(1, 0)
			wi := complex(1, 0)
			wfBase := cmplx.Exp(complex(0, -step))
			wiBase := cmplx.Exp(complex(0, step))
			for k := 0; k < half; k++ {
				fwd[half-1+k] = wf
				inv[half-1+k] = wi
				wf *= wfBase
				wi *= wiBase
			}
		}
		fftTables.fwd, fftTables.inv = fwd, inv
	}
	return fftTables.fwd[: n-1 : n-1], fftTables.inv[: n-1 : n-1]
}

// sharedRev returns the process-wide bit-reversal permutation for
// transform size m, building it on first use.
func sharedRev(m int) []int {
	fftTables.mu.Lock()
	defer fftTables.mu.Unlock()
	if rev, ok := fftTables.revs[m]; ok {
		return rev
	}
	rev := make([]int, m)
	if m > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(m)))
		for i := 0; i < m; i++ {
			rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	if fftTables.revs == nil {
		fftTables.revs = map[int][]int{}
	}
	fftTables.revs[m] = rev
	return rev
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
	p.fwd, p.inv = sharedTwiddles(n)
	return p, nil
}

// Size returns the transform size the plan was built for.
func (p *PackedConvolutionPlan) Size() int { return p.n }

// revFor returns the bit-reversal permutation for transform size m,
// fetching the shared one on first use.
func (p *PackedConvolutionPlan) revFor(m int) []int {
	rev, ok := p.revs[m]
	if !ok {
		rev = sharedRev(m)
		p.revs[m] = rev
	}
	return rev
}

// planSizeFor returns the transform size a chain of count convolutions of
// an s0Len-bucket PMF with an sLen-bucket PMF needs: the smallest power
// of two covering the longest row, exactly as the naive chain sizes it.
func planSizeFor(s0Len, sLen, count int) int {
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
// planSizeFor sizes, so a degenerate (e.g. single-bucket) chain rides
// the other chain's grid.
func PackedPlanSizeFor(cLen, mLen, count int) int {
	nc := planSizeFor(cLen, cLen, count)
	nm := planSizeFor(mLen, mLen, count)
	if nm > nc {
		return nm
	}
	return nc
}

// Start begins a chain pair of count rows over c and m: it packs both
// real inputs into one complex signal, c + i*m, and runs no transform.
// Rows are then produced on demand by RowInto, whose first call runs the
// forward transform. The plan must have been built for exactly
// PackedPlanSizeFor(len(c.P), len(m.P), count). Start copies c's and
// m's buckets, so the caller may reuse them once it returns.
func (p *PackedConvolutionPlan) Start(c, m PMF, count int) error {
	p.row = -1
	if count <= 0 {
		return fmt.Errorf("stats: packed chain count must be positive")
	}
	if len(c.P) == 0 || len(m.P) == 0 {
		return fmt.Errorf("stats: packed chain over an empty PMF")
	}
	if want := PackedPlanSizeFor(len(c.P), len(m.P), count); want != p.n {
		return fmt.Errorf("stats: packed plan size %d, chain pair needs %d", p.n, want)
	}
	size := nextPow2(max(len(c.P), len(m.P)))
	if need := size + p.n/size; cap(p.pad) < need {
		p.pad = make([]complex128, need)
		p.zeros = nil
	}
	p.in = p.pad[:size]
	for i := range p.in {
		var re, im float64
		if i < len(c.P) {
			re = c.P[i]
		}
		if i < len(m.P) {
			im = m.P[i]
		}
		p.in[i] = complex(re, im)
	}
	if g := p.n / size; len(p.zeros) != g {
		p.zeros = p.pad[size : size+g]
		clear(p.zeros)
		negZero := math.Copysign(0, -1)
		p.zeros[0] = complex(negZero, negZero)
		fftStages(p.zeros, p.fwd)
	}
	p.cOrigin, p.cWidth, p.nc = c.Origin, c.Width, len(c.P)
	p.mOrigin, p.mWidth, p.nm = m.Origin, m.Width, len(m.P)
	p.count = count
	p.row = 0
	p.stride = 0
	return nil
}

// forward computes the two input spectra at the bins that are multiples
// of d, the decimation of the rows up to the one being read. It is the
// full-size forward FFT of the packed input, pruned to the values those
// bins depend on, and bitwise-equal to the full transform's at every bin
// it computes.
//
// After the bit-reversal permutation the len(in) input samples sit g =
// n/len(in) apart, each heading a block of g zeros. The first log2(g)
// butterfly stages stay inside such blocks, where every partner is zero
// padding: they only copy the head across its block, adding signed zeros
// that can flip a -0 component to +0. zeros[k], those stages applied to a
// (-0, -0) head (Start computes it once per block size), is the exact
// net effect at offset k, so the stages collapse to one addition per kept
// value. Every later stage keeps only the butterflies at multiples of d:
// the bins read need nothing else.
// With 128 buckets in a 2,048-point transform the first four stages
// only copy, and at stride 4 the other seven compute 1,792 of the full
// transform's 11,264 butterflies.
//
// Bins already computed keep their accumulators; bins new at stride d
// start from their spectra and replay the power steps up to the current
// row, the same multiplications in the same order as RowInto's.
func (p *PackedConvolutionPlan) forward(d int) {
	n := p.n
	zeros := p.zeros
	g := len(zeros)
	x := p.z
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i, a := range p.in {
		j := int(bits.Reverse64(uint64(i)) >> shift) // a multiple of g
		blk := x[j : j+g]
		for k := 0; k < g; k += d {
			blk[k] = a + zeros[k]
		}
	}
	for size := 2 * g; size <= n; size <<= 1 {
		half := size >> 1
		ws := p.fwd[half-1 : 2*half-1]
		for start := 0; start < n; start += size {
			xa := x[start : start+half]
			xb := x[start+half : start+size][:len(xa)]
			wk := ws[:len(xa)]
			for k := 0; k < len(xa); k += d {
				a := xa[k]
				b := xb[k] * wk[k]
				xa[k] = a + b
				xb[k] = a - b
			}
		}
	}

	// Split the packed spectrum by conjugate symmetry into the two
	// Hermitian half-spectra: with Z the forward transform of c + i*m,
	//
	//	specC[k] = (Z[k] + conj(Z[n-k])) / 2
	//	specM[k] = (Z[k] - conj(Z[n-k])) / (2i)
	//
	// Only bins 0..n/2 are kept; the rest are their conjugate mirrors.
	// Bins 0 and n/2 are self-mirrored, so their imaginary parts come
	// out exactly zero — the half-spectra are exactly Hermitian, not
	// merely approximately, and stay so under pointwise products. Both
	// chains self-convolve (s0 == s), so a new bin's accumulator starts
	// as its spectrum, row 0.
	old := p.stride
	for k := 0; k <= n/2; k += d {
		zk := x[k]
		zn := x[(n-k)&(n-1)]
		a, b := real(zk), imag(zk)
		cr, ci := real(zn), imag(zn)
		sc := complex((a+cr)/2, (b-ci)/2)
		sm := complex((b+ci)/2, (cr-a)/2)
		p.specC[k], p.specM[k] = sc, sm
		if old != 0 && k&(old-1) == 0 {
			continue
		}
		ac, am := sc, sm
		for r := 0; r < p.row; r++ {
			ac *= sc
			am *= sm
		}
		p.accC[k], p.accM[k] = ac, am
	}
	p.stride = d
}

// RowInto writes row i of the chain pair begun by Start into dstC and
// dstM, reusing their backing arrays when capacity allows. The
// accumulated spectra only move forward, so i may not precede the last
// row produced; rows skipped on the way cost one half-spectrum power step
// each and no inverse transform. A row that reads finer bins than the
// spectra computed so far first runs the forward transform at its
// stride. Each row's bits do not depend on which rows before it were
// read or skipped.
func (p *PackedConvolutionPlan) RowInto(i int, dstC, dstM *PMF) error {
	if p.row < 0 {
		return fmt.Errorf("stats: packed row %d requested before Start", i)
	}
	if i < p.row || i >= p.count {
		return fmt.Errorf("stats: packed row %d outside [%d, %d)", i, p.row, p.count)
	}
	n := p.n
	nc, nm := p.nc, p.nm
	lc := nc + i*(nc-1)
	lm := nm + i*(nm-1)
	// Pruned inverse: row i has exact support max(lc, lm), so a
	// transform of the smallest covering power of two ni suffices —
	// decimating the spectrum by d = n/ni aliases the row mod ni,
	// which is exact for a signal of support <= ni.
	ni := nextPow2(max(lc, lm))
	d := n / ni
	if p.stride == 0 || d < p.stride {
		p.forward(d)
	}
	// Half-spectrum power steps: both accumulators advance one
	// convolution per step over the computed bins only. The
	// common-length subslices let the compiler drop all but one of the
	// bounds checks.
	accC := p.accC[:n/2+1]
	accM, specC, specM := p.accM[:len(accC)], p.specC[:len(accC)], p.specM[:len(accC)]
	for stride := p.stride; p.row < i; p.row++ {
		for k := 0; k < len(accC); k += stride {
			accC[k] *= specC[k]
			accM[k] *= specM[k]
		}
	}
	hi := ni / 2
	w := p.z[:ni]
	// Assemble the fused natural-order spectrum w = accC + i*accM
	// from the decimated half-spectra; the upper half comes from
	// Hermitian symmetry, w[ni-k] = conj(accC[k*d] - i*accM[k*d]).
	for k := 0; k <= hi; k++ {
		ac, am := accC[k*d], accM[k*d]
		w[k] = complex(real(ac)-imag(am), imag(ac)+real(am))
	}
	for k := 1; k < hi; k++ {
		ac, am := accC[k*d], accM[k*d]
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
		// midpoint correction: bucket masses sit at midpoints, so
		// buckets i and j sum to (i+j+1) widths past the two origins.
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
	// operations in the identical order as the naive oracle FFT's loop
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
