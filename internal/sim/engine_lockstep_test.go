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
// this engine once its op set became the RunEventsUntil/Step/Run surface
// fleets use (the digests from the timing-wheel engine it replaced
// covered ops since removed). They pin the firing histories against
// future rewrites; the oracle comparison checks every op independently.
var lockstepGolden = [40]golden{
	{370, 6331855543987, 0x96e58ac35353c385}, {246, 2783139338277, 0x922e647418d267e8},
	{175, 588444208349, 0x590bf17a21d5e7b0}, {322, 2199023656970, 0xe4624ae31e9e6766},
	{197, 9347996323739, 0x67e156cadb04d8c9}, {477, 3299610110760, 0xc1dadc813df3243c},
	{442, 2784212559791, 0xb951157bb9632b39}, {210, 2199023322895, 0xa2d6789bc38d3955},
	{370, 3307393786429, 0x1606329af24a41c1}, {497, 3116000880943, 0xfe22b03df24297c2},
	{324, 826781739125, 0x103f0c983b5070b0}, {346, 18177912357258, 0x73f7377a17d53e05},
	{312, 10449655960269, 0xe815810395c8fa91}, {295, 10997397995544, 0x358c02f617c4a8b8},
	{243, 6622839574779, 0x81cbb5495051e7ee}, {317, 13201655733107, 0x6e5679dd5c309d35},
	{542, 8797183552951, 0xd7adc1d4498fdfef}, {177, 2201170745346, 0x8da6b60ca961e17f},
	{260, 1653562413949, 0xcde683f7bd024df1}, {413, 7699804198273, 0x5d0578f71e11e9de},
	{491, 13754767791679, 0x3dbf0ae609667df1}, {416, 2752000437530, 0xde6b4b6e3cb5cdd3},
	{347, 14843406977475, 0xcdfa8e5ead5d2cf9}, {346, 2220499149861, 0x52313c81a105fc9d},
	{155, 3298534885363, 0x1fbe1b979f7636b1}, {452, 3594887635164, 0xc865d2d0d4831c55},
	{494, 3853659452511, 0xbb81778e718b14e4}, {252, 3304977338431, 0x902199e10532fb7c},
	{452, 3440539865882, 0x703fc4c586d2d8c2}, {132, 1649267443391, 0x2e8a151c2b170642},
	{312, 1189706474061, 0x542ef484c9ca3d85}, {231, 9895604917679, 0xfbffc34c6e01bd9},
	{278, 10995122573076, 0xe5de2dfa9750a7da}, {120, 549756213100, 0x90eab6e261dd0ec},
	{275, 1653696666390, 0x19a1b7a5be617e0}, {91, 1099511628669, 0x76cad549a9bbb863},
	{522, 8252915196857, 0x7fa13b24fee3f9c5}, {309, 2753074080525, 0xe1399b741cf7848e},
	{427, 2201271936823, 0x12b7e97177ca1136}, {553, 12645458528533, 0x5eadd43e5624323f},
}

// driveSeed runs one randomized schedule: interleaved oneShot/
// oneShotAfter/Reschedule/Cancel/RunEventsUntil/Step ops, plus a self-rescheduling handle (the shape
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
			ok = e.RunEventsUntil(e.Now() + Time(1)<<uint(10+r.Intn(36)))
		case k < 13:
			ok = e.RunEventsUntil(e.Now() + Time(r.Intn(120)))
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
// pending counts and Scheduled bits after every op, and the recorded
// firing digest.
func TestEngineLockstepWithReference(t *testing.T) {
	for seed := int64(0); seed < int64(len(lockstepGolden)); seed++ {
		got := driveSeed(NewEngine(), seed)
		checkLockstep(t, fmt.Sprintf("seed %d", seed), got, driveSeed(&oracle{}, seed))
		if d := got.digest(); d != lockstepGolden[seed] {
			t.Errorf("seed %d: digest %+v, golden %+v", seed, d, lockstepGolden[seed])
		}
	}
}
