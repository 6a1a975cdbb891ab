package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// packedErrBound is the packed pipeline's accuracy contract against the
// reference convolutions: every row entry agrees within this relative
// error, normalized by the row's largest reference entry. Observed error
// on unit-mass PMFs is ~1e-13; the contract leaves four orders of margin.
const packedErrBound = 1e-9

func randomPMF(r *rand.Rand, n int, origin, width float64) PMF {
	p := make([]float64, n)
	var tot float64
	for i := range p {
		p[i] = r.Float64()
		tot += p[i]
	}
	for i := range p {
		p[i] /= tot
	}
	return PMF{Origin: origin, Width: width, P: p}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkPackedRows compares one packed chain against its reference chain:
// geometry (origin, width, length) must match bitwise, values within
// packedErrBound of the row's largest reference entry.
func checkPackedRows(t *testing.T, chain string, got, want []PMF) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", chain, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i].Origin, want[i].Origin) || !sameBits(got[i].Width, want[i].Width) {
			t.Fatalf("%s row %d geometry: got (%v,%v) want (%v,%v)",
				chain, i, got[i].Origin, got[i].Width, want[i].Origin, want[i].Width)
		}
		if len(got[i].P) != len(want[i].P) {
			t.Fatalf("%s row %d length %d, want %d", chain, i, len(got[i].P), len(want[i].P))
		}
		scale := 0.0
		for _, v := range want[i].P {
			if v > scale {
				scale = v
			}
		}
		if scale == 0 {
			scale = 1
		}
		for k := range want[i].P {
			if diff := math.Abs(got[i].P[k] - want[i].P[k]); diff > packedErrBound*scale {
				t.Fatalf("%s row %d entry %d: got %v want %v (rel err %v)",
					chain, i, k, got[i].P[k], want[i].P[k], diff/scale)
			}
		}
	}
}

func TestNewPackedConvolutionPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 12, 1000} {
		if _, err := NewPackedConvolutionPlan(n); err == nil {
			t.Fatalf("packed plan size %d must be rejected", n)
		}
	}
}

// TestPackedSelfConvolutionsMatchReferenceWithinBound is the packed
// pipeline's core accuracy property: both chains of a packed pass agree
// with the independent reference chains within packedErrBound, across
// mismatched bucket counts, distinct widths and origins, and repeated
// reuse of the same plan and destination buffers.
func TestPackedSelfConvolutionsMatchReferenceWithinBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomPMF(r, 1+r.Intn(130), float64(r.Intn(10)), 0.25+r.Float64())
		m := randomPMF(r, 1+r.Intn(130), float64(r.Intn(10)), 0.25+r.Float64())
		count := 1 + r.Intn(20)
		wantC, err := naiveChain(c, c, count)
		if err != nil {
			return false
		}
		wantM, err := naiveChain(m, m, count)
		if err != nil {
			return false
		}
		plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(len(c.P), len(m.P), count))
		if err != nil {
			return false
		}
		gotC := make([]PMF, count)
		gotM := make([]PMF, count)
		// Two rounds: the second reuses the first round's destination
		// buffers and the plan's scratch, proving reuse changes nothing.
		for round := 0; round < 2; round++ {
			if err := selfConvolutions(plan, gotC, gotM, c, m); err != nil {
				t.Fatal(err)
			}
			checkPackedRows(t, "C", gotC, wantC)
			checkPackedRows(t, "M", gotM, wantM)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedSelfConvolutionsDeterministic pins the pipeline's determinism
// contract: the same inputs produce the same bits on every call and on a
// freshly built plan — the property the shard/cache/work-stealing
// invariance of the fleet engine leans on once packed is the default.
func TestPackedSelfConvolutionsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	c := randomPMF(r, 128, 3, 250)
	m := randomPMF(r, 96, 1, 40)
	const count = 16
	plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(len(c.P), len(m.P), count))
	if err != nil {
		t.Fatal(err)
	}
	firstC := make([]PMF, count)
	firstM := make([]PMF, count)
	if err := selfConvolutions(plan, firstC, firstM, c, m); err != nil {
		t.Fatal(err)
	}
	// Deep-copy: later calls refill the same destination backing arrays.
	snap := func(rows []PMF) []PMF {
		out := make([]PMF, len(rows))
		for i, row := range rows {
			out[i] = PMF{Origin: row.Origin, Width: row.Width, P: append([]float64(nil), row.P...)}
		}
		return out
	}
	wantC, wantM := snap(firstC), snap(firstM)

	fresh, err := NewPackedConvolutionPlan(plan.Size())
	if err != nil {
		t.Fatal(err)
	}
	for trial, p := range []*PackedConvolutionPlan{plan, fresh} {
		gotC := make([]PMF, count)
		gotM := make([]PMF, count)
		if err := selfConvolutions(p, gotC, gotM, c, m); err != nil {
			t.Fatal(err)
		}
		for i := range wantC {
			for k := range wantC[i].P {
				if !sameBits(gotC[i].P[k], wantC[i].P[k]) {
					t.Fatalf("trial %d: C row %d entry %d not deterministic", trial, i, k)
				}
			}
			for k := range wantM[i].P {
				if !sameBits(gotM[i].P[k], wantM[i].P[k]) {
					t.Fatalf("trial %d: M row %d entry %d not deterministic", trial, i, k)
				}
			}
		}
	}
}

func TestPackedSelfConvolutionsDegenerateSingleBucket(t *testing.T) {
	// A degenerate chain (single-bucket delta PMF) paired with a full-width
	// chain rides the wide chain's grid; both must still match their
	// references. Also the doubly-degenerate pair, which runs at size 1.
	delta := PMF{Origin: 5, Width: 1, P: []float64{1}}
	r := rand.New(rand.NewSource(33))
	wide := randomPMF(r, 128, 0, 1000)
	const count = 8
	for _, pair := range []struct {
		name string
		c, m PMF
	}{
		{"delta-wide", delta, wide},
		{"wide-delta", wide, delta},
		{"delta-delta", delta, delta},
	} {
		wantC, err := naiveChain(pair.c, pair.c, count)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := naiveChain(pair.m, pair.m, count)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(len(pair.c.P), len(pair.m.P), count))
		if err != nil {
			t.Fatal(err)
		}
		gotC := make([]PMF, count)
		gotM := make([]PMF, count)
		if err := selfConvolutions(plan, gotC, gotM, pair.c, pair.m); err != nil {
			t.Fatalf("%s: %v", pair.name, err)
		}
		checkPackedRows(t, pair.name+"/C", gotC, wantC)
		checkPackedRows(t, pair.name+"/M", gotM, wantM)
	}
}

func TestPackedSelfConvolutionsValidation(t *testing.T) {
	ok := PMF{Origin: 0, Width: 1, P: []float64{1}}
	plan, err := NewPackedConvolutionPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Start(ok, ok, 0); err == nil {
		t.Fatal("expected error for zero rows")
	}
	if err := plan.Start(PMF{}, ok, 2); err == nil {
		t.Fatal("expected error for empty c")
	}
	if err := plan.Start(ok, PMF{}, 2); err == nil {
		t.Fatal("expected error for empty m")
	}
	// Mismatched plan size must be rejected, not silently mis-transformed.
	big := randomPMF(rand.New(rand.NewSource(1)), 64, 0, 1)
	if err := plan.Start(big, big, 8); err == nil {
		t.Fatal("expected plan size mismatch error")
	}
	var row PMF
	if err := plan.RowInto(0, &row, &row); err == nil {
		t.Fatal("RowInto after a failed Start must error")
	}
}

// TestPackedRowIntoSkipsRows checks the on-demand half of the pipeline:
// rows requested out of a sparse, increasing sequence after Start are
// bitwise the rows of the full pass, and requests that would need the
// accumulated spectra to move backwards are errors.
func TestPackedRowIntoSkipsRows(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := randomPMF(r, 128, 2, 300)
	m := randomPMF(r, 100, 1, 20)
	const count = 16
	plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(len(c.P), len(m.P), count))
	if err != nil {
		t.Fatal(err)
	}
	var row PMF
	if err := plan.RowInto(0, &row, &row); err == nil {
		t.Fatal("RowInto before Start must error")
	}
	fullC := make([]PMF, count)
	fullM := make([]PMF, count)
	if err := selfConvolutions(plan, fullC, fullM, c, m); err != nil {
		t.Fatal(err)
	}
	if err := plan.Start(c, m, count); err != nil {
		t.Fatal(err)
	}
	var gotC, gotM PMF
	for _, i := range []int{0, 0, 3, 4, 11, 15} {
		if err := plan.RowInto(i, &gotC, &gotM); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]PMF{{gotC, fullC[i]}, {gotM, fullM[i]}} {
			got, want := pair[0], pair[1]
			if !sameBits(got.Origin, want.Origin) || !sameBits(got.Width, want.Width) || len(got.P) != len(want.P) {
				t.Fatalf("row %d geometry differs from the full pass", i)
			}
			for k := range want.P {
				if !sameBits(got.P[k], want.P[k]) {
					t.Fatalf("row %d entry %d: %v, full pass %v", i, k, got.P[k], want.P[k])
				}
			}
		}
	}
	if err := plan.RowInto(14, &gotC, &gotM); err == nil {
		t.Fatal("a row behind the accumulated spectra must error")
	}
	if err := plan.RowInto(count, &gotC, &gotM); err == nil {
		t.Fatal("a row past count must error")
	}
}

// startFullForward is the full-size forward transform the pruned one
// replaced, kept as its oracle: Start, then pack both inputs into the
// whole n-point signal, bit-reverse it, run every butterfly stage and
// split all n/2+1 bins, leaving the plan's spectra at stride 1. Rows
// read after it are the rows of the unpruned pipeline.
func startFullForward(p *PackedConvolutionPlan, c, m PMF, count int) error {
	if err := p.Start(c, m, count); err != nil {
		return err
	}
	n := p.n
	z := make([]complex128, n)
	for i, v := range c.P {
		z[i] = complex(v, 0)
	}
	for i, v := range m.P {
		z[i] = complex(real(z[i]), v)
	}
	for i, j := range p.revFor(n) {
		if j > i {
			z[i], z[j] = z[j], z[i]
		}
	}
	fftStages(z, p.fwd)
	for k := 0; k <= n/2; k++ {
		zk := z[k]
		zn := z[(n-k)&(n-1)]
		a, b := real(zk), imag(zk)
		cr, ci := real(zn), imag(zn)
		p.specC[k] = complex((a+cr)/2, (b-ci)/2)
		p.specM[k] = complex((b+ci)/2, (cr-a)/2)
	}
	copy(p.accC, p.specC)
	copy(p.accM, p.specM)
	p.stride = 1
	return nil
}

// samePMF reports whether two PMFs are bitwise-identical.
func samePMF(a, b PMF) bool {
	if !sameBits(a.Origin, b.Origin) || !sameBits(a.Width, b.Width) || len(a.P) != len(b.P) {
		return false
	}
	for k := range a.P {
		if !sameBits(a.P[k], b.P[k]) {
			return false
		}
	}
	return true
}

// checkRowsMatchFullForward reads the given increasing rows of the chain
// pair through the pruned forward transform and through the full-size
// oracle, and requires every row pair to be bitwise-identical.
func checkRowsMatchFullForward(t *testing.T, c, m PMF, count int, rows []int) {
	t.Helper()
	n := PackedPlanSizeFor(len(c.P), len(m.P), count)
	pruned, err := NewPackedConvolutionPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewPackedConvolutionPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := pruned.Start(c, m, count); err != nil {
		t.Fatal(err)
	}
	if err := startFullForward(full, c, m, count); err != nil {
		t.Fatal(err)
	}
	var gotC, gotM, wantC, wantM PMF
	for _, i := range rows {
		if err := pruned.RowInto(i, &gotC, &gotM); err != nil {
			t.Fatal(err)
		}
		if err := full.RowInto(i, &wantC, &wantM); err != nil {
			t.Fatal(err)
		}
		if !samePMF(gotC, wantC) || !samePMF(gotM, wantM) {
			t.Fatalf("nc %d nm %d count %d rows %v: row %d differs from the full-size forward\nC %v\nwant %v\nM %v\nwant %v",
				len(c.P), len(m.P), count, rows, i, gotC.P, wantC.P, gotM.P, wantM.P)
		}
	}
}

// TestPackedPrunedForwardMatchesFull pins the pruned forward transform:
// over random shapes, sparse row sequences (so strides refine mid-chain
// after skipped rows), buckets that are exactly +0 or -0, and
// single-bucket chains, every row is bitwise the row the full-size
// forward transform gives.
func TestPackedPrunedForwardMatchesFull(t *testing.T) {
	negZero := math.Copysign(0, -1)
	r := rand.New(rand.NewSource(22))
	shape := func(n int) PMF {
		d := randomPMF(r, n, float64(r.Intn(5)), 0.5+r.Float64()*10)
		for k := range d.P {
			switch r.Intn(6) {
			case 0:
				d.P[k] = 0
			case 1:
				d.P[k] = negZero
			}
		}
		return d
	}
	for trial := 0; trial < 300; trial++ {
		nc, nm := 1+r.Intn(140), 1+r.Intn(140)
		switch trial % 5 {
		case 0:
			nc = 1
		case 1:
			nc, nm = 1, 1
		}
		c, m := shape(nc), shape(nm)
		count := 1 + r.Intn(20)
		var rows []int
		for i := 0; i < count; i++ {
			if r.Intn(3) == 0 {
				rows = append(rows, i)
			}
		}
		checkRowsMatchFullForward(t, c, m, count, rows)
	}
	// All-zero chains, where only the signs of zeros tell the transforms
	// apart.
	zeros := func(n int, v float64) PMF {
		d := PMF{Origin: 1, Width: 2, P: make([]float64, n)}
		for k := range d.P {
			d.P[k] = v
		}
		return d
	}
	for _, nc := range []int{1, 2, 5, 128} {
		for _, nm := range []int{1, 3, 128} {
			for _, vc := range []float64{0, negZero} {
				for _, vm := range []float64{0, negZero} {
					checkRowsMatchFullForward(t, zeros(nc, vc), zeros(nm, vm), 16, []int{0, 1, 2, 3, 4, 8, 15})
					checkRowsMatchFullForward(t, zeros(nc, vc), shape(nm), 6, []int{1, 5})
				}
			}
		}
	}
	// The paper shape: 128 buckets, 16 positions. Column 3 reads stride
	// 4; column 4 refines to stride 2 and column 8 to stride 1.
	c, m := shape(128), shape(128)
	checkRowsMatchFullForward(t, c, m, 16, []int{1, 3, 4, 8, 15})
	checkRowsMatchFullForward(t, c, m, 16, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	checkRowsMatchFullForward(t, c, m, 16, []int{15})
}

func TestPackedSelfConvolutionsAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := randomPMF(r, 128, 0, 1000)
	m := randomPMF(r, 128, 0, 50)
	plan, err := NewPackedConvolutionPlan(PackedPlanSizeFor(128, 128, 16))
	if err != nil {
		t.Fatal(err)
	}
	dstC := make([]PMF, 16)
	dstM := make([]PMF, 16)
	if err := selfConvolutions(plan, dstC, dstM, c, m); err != nil { // warm buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := selfConvolutions(plan, dstC, dstM, c, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm full packed pass allocates %v/op, want 0", allocs)
	}
}

// resetFFTTables empties the process-wide FFT tables, so the next plan
// builds them from scratch. Plans built before keep the tables they hold.
func resetFFTTables() {
	fftTables.mu.Lock()
	defer fftTables.mu.Unlock()
	fftTables.fwd, fftTables.inv, fftTables.revs = nil, nil, nil
}

// sharedTableCase is one chain pair whose plan size is n.
type sharedTableCase struct {
	n, count int
	c, m     PMF
}

// runSharedTableCase builds a plan for the case and returns every row.
func runSharedTableCase(tc sharedTableCase) ([]PMF, []PMF, error) {
	plan, err := NewPackedConvolutionPlan(tc.n)
	if err != nil {
		return nil, nil, err
	}
	rowsC, rowsM := make([]PMF, tc.count), make([]PMF, tc.count)
	return rowsC, rowsM, selfConvolutions(plan, rowsC, rowsM, tc.c, tc.m)
}

// Plans built and run concurrently, while the shared tables grow under
// them, produce bitwise what each plan produces when it is built alone
// from empty tables.
func TestPackedSharedTablesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var cases []sharedTableCase
	for n := 2; n <= 4096; n <<= 1 {
		for rep := 0; rep < 2; rep++ {
			count := 1 + r.Intn(min(16, n/2))
			lc := 1 + (n-1)/count
			c := randomPMF(r, lc, r.Float64()*5, 0.5+r.Float64()*10)
			m := randomPMF(r, 1+r.Intn(lc), r.Float64()*5, 0.5+r.Float64()*10)
			if got := PackedPlanSizeFor(len(c.P), len(m.P), count); got != n {
				t.Fatalf("case for size %d has plan size %d", n, got)
			}
			cases = append(cases, sharedTableCase{n: n, count: count, c: c, m: m})
		}
	}
	defer resetFFTTables()
	wantC := make([][]PMF, len(cases))
	wantM := make([][]PMF, len(cases))
	for i, tc := range cases {
		resetFFTTables()
		var err error
		if wantC[i], wantM[i], err = runSharedTableCase(tc); err != nil {
			t.Fatal(err)
		}
	}

	resetFFTTables()
	r.Shuffle(len(cases), func(i, j int) {
		cases[i], cases[j] = cases[j], cases[i]
		wantC[i], wantC[j] = wantC[j], wantC[i]
		wantM[i], wantM[j] = wantM[j], wantM[i]
	})
	errs := make(chan error, len(cases))
	for i, tc := range cases {
		go func() {
			gotC, gotM, err := runSharedTableCase(tc)
			if err == nil {
				for row := range gotC {
					if !samePMF(gotC[row], wantC[i][row]) || !samePMF(gotM[row], wantM[i][row]) {
						err = fmt.Errorf("size %d count %d: row %d differs from the plan built alone", tc.n, tc.count, row)
						break
					}
				}
			}
			errs <- err
		}()
	}
	for range cases {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// A plan shares its twiddles and bit-reversal permutations with every
// other plan and sizes its input buffer to the inputs, so a second
// 2,048-point plan allocates only its spectra and scratch: about 100 KB,
// against about 208 KB when every plan built its own tables and a
// worst-case input buffer.
func TestPackedPlanFootprint(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	c, m := randomPMF(r, 128, 0, 1000), randomPMF(r, 128, 0, 50)
	const count = 16
	n := PackedPlanSizeFor(len(c.P), len(m.P), count)
	if n != 2048 {
		t.Fatalf("paper-shape plan size %d, want 2048", n)
	}
	dstC, dstM := make([]PMF, count), make([]PMF, count)
	first, err := NewPackedConvolutionPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := selfConvolutions(first, dstC, dstM, c, m); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := NewPackedConvolutionPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := selfConvolutions(second, dstC, dstM, c, m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 110 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("second %d-point plan allocated %d bytes, want < %d", n, got, limit)
	}
}
