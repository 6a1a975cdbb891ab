package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracle is the executable specification of the event semantics: one
// slice kept sorted by (time, scheduling sequence), with tombstones left
// in place. Reschedule and Cancel never remove an entry; they retarget the
// handle's live sequence number, so a displaced entry stays queued until a
// later firing passes it or a drain pops it and drags the clock to its
// time — the end-of-run clock of the original tombstone engine, which
// Engine reproduces with its phantom field.
type oracle struct {
	now  Time
	seq  uint64
	live int
	q    []entry
	hs   []oracleHandle
}

type oracleHandle struct {
	fn  func()
	seq uint64 // sequence number of the live entry, 0 when unscheduled
}

func (o *oracle) Now() Time                        { return o.now }
func (o *oracle) Pending() int                     { return o.live }
func (o *oracle) Scheduled(h Handle) bool          { return o.hs[h].seq != 0 }
func (o *oracle) RescheduleAfter(h Handle, d Time) { o.Reschedule(h, o.now+d) }
func (o *oracle) Step() bool                       { return o.fire(math.MaxInt64) }

func (o *oracle) Register(fn func()) Handle {
	o.hs = append(o.hs, oracleHandle{fn: fn})
	return Handle(len(o.hs) - 1)
}

func (o *oracle) Reschedule(h Handle, t Time) {
	o.Cancel(h)
	t = max(t, o.now)
	o.seq++
	o.hs[h].seq = o.seq
	o.live++
	i := sort.Search(len(o.q), func(i int) bool { return o.q[i].at > t })
	o.q = slices.Insert(o.q, i, entry{at: t, seq: o.seq, h: h})
}

func (o *oracle) Cancel(h Handle) {
	if o.hs[h].seq != 0 {
		o.hs[h].seq = 0
		o.live--
	}
}

// fire discards the tombstones ahead of the earliest live entry and runs
// that entry, if it is due by limit.
func (o *oracle) fire(limit Time) bool {
	for i, ev := range o.q {
		if ev.at > limit {
			return false
		}
		if hs := &o.hs[ev.h]; hs.seq == ev.seq {
			o.q = o.q[i+1:]
			hs.seq = 0
			o.live--
			o.now = ev.at
			hs.fn()
			return true
		}
	}
	return false
}

// Run fires every live entry, then pops the remaining tombstones: the last
// one drags the drained clock.
func (o *oracle) Run() {
	for o.Step() {
	}
	if n := len(o.q); n > 0 {
		o.now = max(o.now, o.q[n-1].at)
		o.q = o.q[:0]
	}
}

func (o *oracle) RunUntil(t Time) {
	for o.fire(t) {
	}
	o.now = max(o.now, t)
}

func (o *oracle) RunUntilOrDrain(t Time) {
	if t <= 0 {
		o.Run()
	} else if !o.RunEventsUntil(t) {
		o.now = max(o.now, t)
	}
}

func (o *oracle) RunEventsUntil(t Time) bool {
	for o.fire(t) {
	}
	if o.live > 0 {
		return false
	}
	o.Run()
	return true
}

// oneShot schedules fn once at t on a freshly registered handle, the
// shape the tests use to seed fire-once events.
func oneShot(e engineAPI, t Time, fn func()) { e.Reschedule(e.Register(fn), t) }

// oneShotAfter schedules fn once d nanoseconds from now.
func oneShotAfter(e engineAPI, d Time, fn func()) { oneShot(e, e.Now()+d, fn) }

// engineAPI is the surface the lockstep schedules exercise, implemented by
// both Engine and the oracle.
type engineAPI interface {
	Now() Time
	Pending() int
	Register(fn func()) Handle
	Reschedule(h Handle, t Time)
	RescheduleAfter(h Handle, d Time)
	Cancel(h Handle)
	Scheduled(h Handle) bool
	Step() bool
	Run()
	RunUntil(t Time)
	RunUntilOrDrain(t Time)
	RunEventsUntil(t Time) bool
}

// firing is one observed callback: which label fired and at what clock.
type firing struct {
	label int
	at    Time
}

// state is what a schedule observes after each op: the clock, the pending
// count, the op's own result (Step / RunEventsUntil) and a bitmap of which
// persistent handles are scheduled.
type state struct {
	now       Time
	pending   int
	ok        bool
	scheduled uint64
}

// trace is one engine's history under a schedule.
type trace struct {
	log    []firing
	states []state
}

func (tr *trace) logger(e engineAPI, label int) func() {
	return func() { tr.log = append(tr.log, firing{label, e.Now()}) }
}

func (tr *trace) observe(e engineAPI, hs []Handle, ok bool) {
	s := state{now: e.Now(), pending: e.Pending(), ok: ok}
	for i, h := range hs {
		if e.Scheduled(h) {
			s.scheduled |= 1 << uint(i)
		}
	}
	tr.states = append(tr.states, s)
}

// golden is a firing digest: the firing count, the final clock, and
// FNV-64a over every (label, time) pair in firing order.
type golden struct {
	n   int
	end Time
	sum uint64
}

func (tr *trace) digest() golden {
	h := fnv.New64a()
	var b [16]byte
	for _, f := range tr.log {
		binary.LittleEndian.PutUint64(b[:8], uint64(f.label))
		binary.LittleEndian.PutUint64(b[8:], uint64(f.at))
		h.Write(b[:])
	}
	return golden{len(tr.log), tr.states[len(tr.states)-1].now, h.Sum64()}
}

// checkLockstep compares an engine trace against the oracle's, op by op.
func checkLockstep(t *testing.T, name string, got, want trace) {
	t.Helper()
	for i := range want.states {
		if got.states[i] != want.states[i] {
			t.Fatalf("%s op %d: engine %+v, oracle %+v", name, i, got.states[i], want.states[i])
		}
	}
	if !slices.Equal(got.log, want.log) {
		t.Fatalf("%s: firing logs diverged:\nengine %v\noracle %v", name, got.log, want.log)
	}
}

// lockstepGolden holds the per-seed digests of driveSeed, recorded from
// the hierarchical timing-wheel engine this one replaced. Equal digests
// mean the firing histories are unchanged across the rewrite.
var lockstepGolden = [40]golden{
	{394, 14641560326774, 0x69c8102d6bb9b202}, {218, 65975001025596, 0x9eaa2144e1d15ab3},
	{164, 2216236680665, 0x3358254b2d4139b1}, {294, 7284264800141, 0x2e64dbd9d7d399f2},
	{195, 11160506076557, 0xbe50949c4612abf2}, {344, 55662799562493, 0x10427398f843c057},
	{443, 80301968021598, 0x4ece07b9022dd714}, {211, 1108638435949, 0xd9aa51d5015edc5c},
	{202, 1653563462746, 0xacdb4804fff8e64e}, {456, 9345917019420, 0x69018c3477b04bd8},
	{322, 36424543897870, 0x37cba84ed44bfba1}, {323, 18153216280701, 0x282ebfbfd66148bc},
	{255, 9350680842618, 0x94ec45fb629393bc}, {256, 6120328960602, 0xba5a0ace2fe25995},
	{232, 4672924424732, 0x3e8eb9318b699af}, {345, 9006580122694, 0x9c705ae2bca1fcef},
	{388, 3299629732181, 0x6261b72b91225c73}, {179, 2203385382213, 0xe41476354bf08dcf},
	{117, 5669356897467, 0x86f9ebc3b04372fa}, {375, 45648015335670, 0xa6550f9a055caf16},
	{454, 17252888638505, 0x722b5a4bddba9bbc}, {395, 10621454824999, 0x99880c2af658a575},
	{373, 19519619999791, 0x3b541e518decd1fd}, {439, 3438206259636, 0xe416a032876e54c5},
	{150, 37933688031612, 0x9584dcafb46e70b6}, {320, 1109185403870, 0xf2fff1b6d75da15a},
	{362, 11275685893989, 0x3e94d002b3fd2c9c}, {177, 2748779337831, 0x44b777727375996d},
	{425, 21035139208436, 0x27ca474289811b45}, {94, 39621074225283, 0x186eff5e5f18e6a},
	{306, 7168468213626, 0x46c58520271b110a}, {289, 29411944630724, 0xc197d6d471ba3d18},
	{232, 53326333872492, 0xab57e77f416f729b}, {111, 2200131341122, 0x800c4bc6eca58ae},
	{226, 1925388537766, 0xa8447c8f547e5169}, {61, 689484857984, 0x9550971d3470d274},
	{472, 4437108696619, 0x170680856e7f2adc}, {299, 6613712853499, 0xddacf28edfe2da76},
	{337, 6054868557103, 0x9e281a0b9838adb7}, {488, 81364407124142, 0xb8d8fe75be63bce4},
}

// driveSeed runs one randomized schedule: interleaved oneShot/
// oneShotAfter/Reschedule/Cancel/RunUntil/RunUntilOrDrain/
// RunEventsUntil/Step ops, plus a self-rescheduling handle (the shape
// every core event has), handle bursts that grow the pending array past
// its initial capacity and drain it again, and far-future deltas up to
// 2^45 ns.
func driveSeed(e engineAPI, seed int64) trace {
	r := rand.New(rand.NewSource(seed))
	var tr trace
	const handles = 36
	hs := make([]Handle, handles)
	for i := range hs {
		hs[i] = e.Register(tr.logger(e, i))
	}
	chain, period, chained := 3+r.Intn(10), Time(1+r.Intn(40)), 0
	var ch Handle
	logChain := tr.logger(e, handles)
	ch = e.Register(func() {
		logChain()
		if chained++; chained < chain {
			e.RescheduleAfter(ch, period)
		}
	})

	ops := 50 + r.Intn(150)
	for op := 0; op < ops; op++ {
		ok := false
		switch k := r.Intn(16); {
		case k < 3: // reschedule a persistent handle (possibly moving it)
			e.Reschedule(hs[r.Intn(handles)], Time(r.Intn(500)))
		case k < 4: // arm or move the chain
			e.Reschedule(ch, Time(r.Intn(500)))
		case k < 5:
			e.Cancel(hs[r.Intn(handles)])
		case k < 7: // one-shot at an absolute time (possibly past: clamps)
			oneShot(e, Time(r.Intn(500)), tr.logger(e, 100+op))
		case k < 8:
			oneShotAfter(e, Time(r.Intn(100)), tr.logger(e, 100+op))
		case k < 9: // far-future reschedule
			d := Time(1) << uint(10+r.Intn(34))
			e.Reschedule(hs[r.Intn(handles)], e.Now()+d+Time(r.Intn(1000)))
		case k < 10: // burst: every persistent handle at once, past initCap
			base := e.Now()
			for i := range hs {
				e.Reschedule(hs[i], base+Time(r.Intn(2000)))
			}
		case k < 11: // far burst: more than initCap entries spread over
			// decades of delta
			base := e.Now()
			for i := range hs {
				e.Reschedule(hs[i], base+Time(1)<<uint(10+(op+i)%30)+Time(r.Intn(1000)))
			}
		case k < 12: // long advance
			e.RunUntil(e.Now() + Time(1)<<uint(10+r.Intn(36)))
		case k < 13:
			e.RunUntil(e.Now() + Time(r.Intn(120)))
		case k < 14:
			e.RunUntilOrDrain(e.Now() + Time(r.Intn(300)))
		case k < 15: // epoch barrier, near or far
			ok = e.RunEventsUntil(e.Now() + Time(r.Intn(300))<<uint(r.Intn(3)*12))
		default:
			ok = e.Step()
		}
		tr.observe(e, hs, ok)
	}
	e.Run()
	tr.observe(e, hs, false)
	return tr
}

// TestEngineLockstepWithReference is the randomized stress property test:
// every seeded schedule must produce the oracle's firing order, clocks,
// pending counts and Scheduled bits after every op, and the firing digest
// recorded from the previous engine.
func TestEngineLockstepWithReference(t *testing.T) {
	for seed := int64(0); seed < int64(len(lockstepGolden)); seed++ {
		got := driveSeed(NewEngine(), seed)
		checkLockstep(t, fmt.Sprintf("seed %d", seed), got, driveSeed(&oracle{}, seed))
		if d := got.digest(); d != lockstepGolden[seed] {
			t.Errorf("seed %d: digest %+v, golden %+v", seed, d, lockstepGolden[seed])
		}
	}
}
