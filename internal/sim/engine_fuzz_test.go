package sim

import (
	"bytes"
	"testing"
)

// fuzzSeeds are FuzzEngineLockstep's checked-in corpus: a mixed op soup, a
// far-future-heavy sequence (large shifts), a burst/cancel churn, and an
// epoch-barrier/step interleave.
var fuzzSeeds = [][]byte{
	{0, 1, 2, 3, 4, 5, 0, 10, 20, 30, 40, 50, 60, 70},
	{0, 200, 30, 0, 201, 31, 0, 202, 32, 4, 255, 255, 5},
	{3, 9, 3, 9, 3, 9, 1, 0, 1, 1, 0, 5, 0, 0, 4, 80, 2, 7, 5},
	{0, 3, 200, 9, 6, 1, 4, 7, 0, 5, 100, 3, 6, 255, 2, 7, 7, 6, 0, 0, 1, 5, 3, 40, 6, 90, 1, 7},
}

// fuzzGolden holds driveFuzz's digest of each fuzzSeeds entry. Seeds 1
// and 3 keep the digests recorded from the timing-wheel engine this one
// replaced; seeds 0 and 2 were recorded again when their clock-advance
// ops became RunEventsUntil barriers.
var fuzzGolden = []golden{
	{2, 16, 0x8c46c03411ed989b}, {2, 512, 0x6e852aafa48f63c3},
	{4, 9, 0x7070ad1f18f804af}, {3, 103240, 0x301cab60aa516116},
}

// driveFuzz decodes an op sequence from data and runs it on e. The decoder
// favors the shapes that stress the engine: past-due schedules that clamp
// to Now, shifted deltas spanning the whole int64 range, epoch barriers
// interleaved with single steps, and enough live handles that bursts cross
// the pending array's initial capacity.
func driveFuzz(e engineAPI, data []byte) trace {
	var tr trace
	const handles = 32 // > initCap: bursts grow the pending array
	hs := make([]Handle, handles)
	for i := range hs {
		hs[i] = e.Register(tr.logger(e, i))
	}
	next := func(i *int) byte {
		if *i >= len(data) {
			return 0
		}
		b := data[*i]
		*i++
		return b
	}
	shifted := func(i *int) Time { return Time(next(i)) << (uint(next(i)) % 40) }
	for i, op := 0, 0; i < len(data) && op < 512; op++ {
		ok := false
		switch next(&i) % 8 {
		case 0:
			h := hs[int(next(&i))%handles]
			e.Reschedule(h, e.Now()+shifted(&i))
		case 1:
			e.Cancel(hs[int(next(&i))%handles])
		case 2: // past-due one-shot: clamps to Now and fires next
			oneShot(e, e.Now()-Time(next(&i)), tr.logger(e, 1000+op))
		case 3:
			oneShotAfter(e, Time(next(&i)), tr.logger(e, 1000+op))
		case 4, 6:
			ok = e.RunEventsUntil(e.Now() + shifted(&i))
		case 5:
			e.Run()
		case 7:
			ok = e.Step()
		}
		tr.observe(e, hs, ok)
	}
	e.Run()
	tr.observe(e, hs, false)
	return tr
}

// FuzzEngineLockstep drives Engine and the oracle through an op sequence
// decoded from the fuzz input and asserts identical histories; the corpus
// seeds must also reproduce their recorded digests.
func FuzzEngineLockstep(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := driveFuzz(NewEngine(), data)
		checkLockstep(t, "fuzz", got, driveFuzz(&oracle{}, data))
		for i, s := range fuzzSeeds {
			if d := got.digest(); bytes.Equal(data, s) && d != fuzzGolden[i] {
				t.Errorf("seed %d: digest %+v, golden %+v", i, d, fuzzGolden[i])
			}
		}
	})
}
