package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"rubik/internal/sim"
)

// drain pulls up to n requests from a source.
func drain(t *testing.T, src Source, n int) []Request {
	t.Helper()
	var out []Request
	for len(out) < n {
		req, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, req)
	}
	return out
}

// requestsDigest is an FNV-1a digest of a request sequence's fields.
func requestsDigest(reqs []Request) uint64 {
	h := fnv.New64a()
	var b [32]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Arrival))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.ComputeCycles))
		binary.LittleEndian.PutUint64(b[24:], uint64(r.MemTime))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGenSourceMatchesGenerate pins Generate and a streaming GenSource to
// one request sequence per stock arrival shape (Poisson, StepLoad and a
// fresh MMPP), by digests recorded when Generate still ran its own copy
// of the generation loop. A Reset must rewind the source to the same
// sequence.
func TestGenSourceMatchesGenerate(t *testing.T) {
	app := Masstree()
	for _, tc := range []struct {
		name     string
		arrivals func() ArrivalProcess
		digest   uint64
	}{
		{"poisson", func() ArrivalProcess { return Poisson{RatePerSec: app.RateForLoad(0.5)} }, 0x7e912bc0a34f29c9},
		{"step", func() ArrivalProcess {
			step, err := NewStepLoad(
				Phase{Start: 0, RatePerSec: app.RateForLoad(0.3)},
				Phase{Start: sim.Second / 2, RatePerSec: app.RateForLoad(0.7)},
			)
			if err != nil {
				t.Fatal(err)
			}
			return step
		}, 0xe3a9b37935423dfa},
		{"mmpp", func() ArrivalProcess {
			return NewBurstyMMPP(app.RateForLoad(0.3), 3, 20*sim.Millisecond, 5*sim.Millisecond)
		}, 0xc38286c16fecdd33},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := Generate(app, tc.arrivals(), 3000, 99).Requests
			if len(want) != 3000 {
				t.Fatalf("Generate made %d requests, want 3000", len(want))
			}
			if d := requestsDigest(want); d != tc.digest {
				t.Fatalf("Generate digest %#x, want %#x", d, tc.digest)
			}
			src := NewGenSource(app, tc.arrivals(), 3000, 99)
			if got := drain(t, src, 4000); !reflect.DeepEqual(got, want) {
				t.Fatal("streamed requests differ from Generate")
			}
			if _, ok := src.Next(); ok {
				t.Fatal("source yielded more than n requests")
			}
			src.Reset()
			if again := drain(t, src, 4000); !reflect.DeepEqual(again, want) {
				t.Fatal("Reset did not rewind to the identical sequence")
			}
		})
	}
}

func TestGenSourceLen(t *testing.T) {
	app := Masstree()
	src := NewLoadSource(app, 0.5, 10, 1)
	if src.Len() != 10 {
		t.Fatalf("Len %d, want 10", src.Len())
	}
	src.Next()
	if src.Len() != 9 {
		t.Fatalf("Len after pull %d, want 9", src.Len())
	}
	// A negative count streams nothing, as GenerateAtLoad materializes
	// nothing.
	empty := NewLoadSource(app, 0.5, -1, 1)
	if empty.Len() != 0 {
		t.Fatalf("n=-1 Len %d, want 0", empty.Len())
	}
	if req, ok := empty.Next(); ok {
		t.Fatalf("n=-1 source streamed %+v", req)
	}
}

func TestTraceSourceRoundTrip(t *testing.T) {
	tr := GenerateAtLoad(Masstree(), 0.4, 500, 3)
	src := NewTraceSource(tr)
	if src.Len() != 500 {
		t.Fatalf("Len %d", src.Len())
	}
	got := drain(t, src, 1000)
	if !reflect.DeepEqual(got, tr.Requests) {
		t.Fatal("trace source diverged from trace")
	}
	if src.Len() != 0 {
		t.Fatalf("drained Len %d", src.Len())
	}
}

// TestMMPPBurstiness checks the MMPP produces substantially more
// short-timescale rate variance than Poisson at the same mean load, and
// that its stream is deterministic and monotone.
func TestMMPPBurstiness(t *testing.T) {
	app := Masstree()
	gap := meanGap(app, 0.5)
	mk := func() Source {
		return NewGenSource(app, NewBurstyMMPP(app.RateForLoad(0.5)/1.4, 3, 400*gap, 100*gap), 20000, 5)
	}
	a, b := drain(t, mk(), 20000), drain(t, mk(), 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MMPP stream not deterministic")
	}
	var prev sim.Time
	for i, r := range a {
		if r.Arrival < prev {
			t.Fatalf("arrival %d goes backwards", i)
		}
		prev = r.Arrival
	}
	cvM := windowedRateCV(a, 200*gap)
	pois := drain(t, NewLoadSource(app, 0.5, 20000, 5), 20000)
	cvP := windowedRateCV(pois, 200*gap)
	if cvM < 1.5*cvP {
		t.Errorf("MMPP windowed-rate CV %.3f not clearly burstier than Poisson %.3f", cvM, cvP)
	}
}

// windowedRateCV returns the coefficient of variation of per-window
// arrival counts.
func windowedRateCV(reqs []Request, window sim.Time) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var counts []float64
	end := reqs[len(reqs)-1].Arrival
	i := 0
	for t := window; t <= end; t += window {
		n := 0
		for i < len(reqs) && reqs[i].Arrival <= t {
			n++
			i++
		}
		counts = append(counts, float64(n))
	}
	var sum, sumSq float64
	for _, c := range counts {
		sum += c
		sumSq += c * c
	}
	mean := sum / float64(len(counts))
	return math.Sqrt(sumSq/float64(len(counts))-mean*mean) / mean
}

// TestSinusoidRateSwing checks the diurnal scenario actually swings the
// realized rate between the crest and the trough.
func TestSinusoidRateSwing(t *testing.T) {
	app := Masstree()
	const n = 40000
	period := expectedDur(app, 0.5, n) / 4
	src := NewGenSource(app, Sinusoid{BaseRate: app.RateForLoad(0.5), Amplitude: 0.6, Period: period}, n, 7)
	reqs := drain(t, src, n)
	// Count arrivals in the first crest (around period/4) and the first
	// trough (around 3*period/4) quarters.
	var crest, trough int
	for _, r := range reqs {
		phase := float64(r.Arrival%period) / float64(period)
		switch {
		case phase < 0.5:
			crest++
		default:
			trough++
		}
	}
	if crest < trough*2 {
		t.Errorf("crest half %d arrivals vs trough half %d: no diurnal swing", crest, trough)
	}
}

func TestFlashCrowdSpike(t *testing.T) {
	app := Masstree()
	const n = 30000
	T := expectedDur(app, 0.5, n)
	fc := FlashCrowd{BaseRate: app.RateForLoad(0.5), Peak: 3, Start: T / 3, Hold: T / 10, Decay: T / 10}
	reqs := drain(t, NewGenSource(app, fc, n, 9), n)
	pre, spike := 0, 0
	for _, r := range reqs {
		switch {
		case r.Arrival < T/3:
			pre++
		case r.Arrival < T/3+T/10:
			spike++
		}
	}
	preRate := float64(pre) / float64(T/3)
	spikeRate := float64(spike) / float64(T/10)
	if spikeRate < 2*preRate {
		t.Errorf("spike rate %.3g not clearly above base %.3g", spikeRate, preRate)
	}
}

func TestModulatedSlowdowns(t *testing.T) {
	app := Masstree()
	base := drain(t, NewLoadSource(app, 0.5, 5000, 11), 5000)

	// Heavy-tail: arrivals unchanged, a small fraction much slower, and
	// deterministic under Reset.
	ht := Modulate(NewLoadSource(app, 0.5, 5000, 11), &ParetoSlowdown{Prob: 0.02, Scale: 3, Alpha: 1.5, Cap: 50}, 12)
	mod := drain(t, ht, 5000)
	if len(mod) != len(base) {
		t.Fatalf("modulated count %d", len(mod))
	}
	slowed := 0
	for i := range mod {
		if mod[i].Arrival != base[i].Arrival {
			t.Fatal("modulator moved an arrival")
		}
		if mod[i].ComputeCycles > 2*base[i].ComputeCycles {
			slowed++
		}
	}
	if frac := float64(slowed) / float64(len(mod)); frac < 0.005 || frac > 0.06 {
		t.Errorf("straggler fraction %.4f outside [0.005, 0.06]", frac)
	}
	ht.Reset()
	again := drain(t, ht, 5000)
	if !reflect.DeepEqual(again, mod) {
		t.Fatal("modulated source not deterministic under Reset")
	}

	// AR(1): consecutive log-slowdowns must be positively correlated.
	ar := Modulate(NewLoadSource(app, 0.5, 5000, 11), &ARSlowdown{Corr: 0.95, Sigma: 0.3}, 13)
	arMod := drain(t, ar, 5000)
	logs := make([]float64, len(arMod))
	for i := range arMod {
		logs[i] = math.Log(arMod[i].ComputeCycles / base[i].ComputeCycles)
	}
	if corr := lag1Corr(logs); corr < 0.7 {
		t.Errorf("AR(1) lag-1 correlation %.3f, want > 0.7", corr)
	}
}

func lag1Corr(xs []float64) float64 {
	n := len(xs) - 1
	var mx float64
	for _, x := range xs {
		mx += x
	}
	mx /= float64(len(xs))
	var num, den float64
	for i := 0; i < n; i++ {
		num += (xs[i] - mx) * (xs[i+1] - mx)
	}
	for _, x := range xs {
		den += (x - mx) * (x - mx)
	}
	return num / den
}

// TestClosedLoopSource drives the source by hand, acting as the server:
// it checks determinism, the think-time gap, the Requeue contract, the
// request cap and the Len contract — never negative, never rising, exact
// when every completion is fed back, and an upper bound on what an export
// without feedback writes.
func TestClosedLoopSource(t *testing.T) {
	cfg := ClosedLoop{App: Masstree(), Clients: 4, MeanThink: 2 * sim.Millisecond, N: 200, Seed: 21}
	run := func() []Request {
		src := cfg.NewSource()
		var served []Request
		prev := src.Len()
		if prev != cfg.N {
			t.Fatalf("fresh source Len %d, want N=%d", prev, cfg.N)
		}
		checkLen := func(step string) {
			n := src.Len()
			if n < 0 || n > prev {
				t.Fatalf("Len %d after %s, was %d", n, step, prev)
			}
			prev = n
		}
		for {
			req, ok := src.Next()
			checkLen("Next")
			if !ok {
				break
			}
			served = append(served, req)
			// Serve instantly 1ms after arrival; completion spawns the
			// client's next request.
			src.OnCompletion(req.Arrival + sim.Millisecond)
			checkLen("OnCompletion")
		}
		if prev != 0 {
			t.Fatalf("drained source reports Len %d", prev)
		}
		return served
	}
	a, b := run(), run()
	if len(a) != 200 {
		t.Fatalf("served %d requests, want the N=200 cap", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("closed-loop stream not deterministic")
	}
	// pulled counts pull-to-completion, bounded by the population.
	probe := cfg.NewSource()
	for i := 0; i < cfg.Clients; i++ {
		if _, ok := probe.Next(); !ok {
			t.Fatal("population smaller than Clients")
		}
	}
	if got := probe.pulled; got != cfg.Clients {
		t.Fatalf("in flight after %d pulls = %d", cfg.Clients, got)
	}
	probe.OnCompletion(sim.Second)
	if got := probe.pulled; got != cfg.Clients-1 {
		t.Fatalf("in flight after a completion = %d, want %d", got, cfg.Clients-1)
	}
	var prev sim.Time
	for i, r := range a {
		if r.Arrival < prev {
			t.Fatalf("arrival %d goes backwards", i)
		}
		prev = r.Arrival
	}

	// Requeue returns the lookahead so an earlier completion-spawned
	// arrival is delivered first.
	src := cfg.NewSource()
	first, _ := src.Next()
	look, _ := src.Next()
	before := src.Len()
	src.OnCompletion(first.Arrival) // spawns at first.Arrival+think, may precede look
	src.Requeue(look)
	next, ok := src.Next()
	if !ok {
		t.Fatal("source ended after requeue")
	}
	if next.Arrival > look.Arrival {
		t.Fatalf("requeue broke arrival order: got %d after requeueing %d", next.Arrival, look.Arrival)
	}
	if src.Len() != before {
		t.Fatalf("Len %d after the feeder's completion protocol, was %d", src.Len(), before)
	}

	// Without feedback an export holds only the open-loop prefix, one
	// request per client, within the count Len promised.
	exp := cfg.NewSource()
	promised := exp.Len()
	var buf bytes.Buffer
	written, err := WriteJSONL(&buf, "closed", cfg.Seed, exp)
	if err != nil {
		t.Fatal(err)
	}
	if written != cfg.Clients || written > promised {
		t.Fatalf("export wrote %d requests; want the %d-client prefix within Len %d", written, cfg.Clients, promised)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, drain(t, cfg.NewSource(), cfg.N)) {
		t.Fatal("export differs from the open-loop prefix")
	}
}

// TestClosedLoopExhausted pins the lifecycle consumers key ticking off:
// a drained Next with requests in flight is NOT exhausted (a completion
// may spawn arrivals), and the N cap or an empty population is.
func TestClosedLoopExhausted(t *testing.T) {
	src := ClosedLoop{App: Masstree(), Clients: 2, MeanThink: sim.Millisecond, N: 5, Seed: 1}.NewSource()
	if src.Exhausted() {
		t.Fatal("fresh population reports exhausted")
	}
	var reqs []Request
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	if len(reqs) != 2 {
		t.Fatalf("open-loop prefix %d, want Clients=2", len(reqs))
	}
	if src.Exhausted() {
		t.Fatal("in-flight requests can still spawn arrivals; not exhausted")
	}
	for i := 0; i < 5; i++ { // serve everything the cap allows
		src.OnCompletion(reqs[len(reqs)-1].Arrival + sim.Time(i+1)*sim.Millisecond)
		if r, ok := src.Next(); ok {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) != 5 {
		t.Fatalf("served %d, want the N=5 cap", len(reqs))
	}
	if !src.Exhausted() {
		t.Fatal("cap reached and heap empty: must be exhausted")
	}
	empty := ClosedLoop{App: Masstree(), Clients: 0, MeanThink: sim.Millisecond, N: 5, Seed: 1}.NewSource()
	if !empty.Exhausted() {
		t.Fatal("empty population must be exhausted")
	}
}

// TestJSONLRoundTrip checks a JSONL export of a trace reloads deeply
// identical and reports the count it wrote.
func TestJSONLRoundTrip(t *testing.T) {
	tr := GenerateAtLoad(Xapian(), 0.5, 300, 17)
	var buf bytes.Buffer
	written, err := WriteJSONL(&buf, tr.App, tr.Seed, NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if written != len(tr.Requests) {
		t.Fatalf("WriteJSONL wrote %d of %d", written, len(tr.Requests))
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("WriteJSONL/Load round trip diverged")
	}
}

// TestScenarioRegistry builds every scenario for every app and checks the
// streams are monotone, deterministic and produce the requested count
// (where the shape is open-loop).
func TestScenarioRegistry(t *testing.T) {
	app := Masstree()
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Description == "" {
			t.Errorf("%s: empty description", sc.Name)
		}
		if sc.Name == "closedloop" {
			continue // needs completion feedback; covered by TestClosedLoopSource
		}
		a := drain(t, sc.New(app, 0.5, 800, 31), 1000)
		b := drain(t, sc.New(app, 0.5, 800, 31), 1000)
		if len(a) != 800 {
			t.Errorf("%s: yielded %d of 800", sc.Name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: not deterministic", sc.Name)
		}
		var prev sim.Time
		for i, r := range a {
			if r.Arrival < prev {
				t.Errorf("%s: arrival %d goes backwards", sc.Name, i)
				break
			}
			if r.ComputeCycles < 1 || r.MemTime < 0 {
				t.Errorf("%s: request %d has invalid work", sc.Name, i)
				break
			}
			prev = r.Arrival
		}
	}
	for _, name := range []string{"poisson", "bursty", "diurnal", "flashcrowd", "closedloop"} {
		if _, err := ScenarioByName(name); err != nil {
			t.Errorf("ScenarioByName(%s): %v", name, err)
		}
	}
	if _, err := ScenarioByName("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestScenarioNewHostileLoads builds every scenario through its own New,
// the path that skips NewScenarioSource (rubik.Scenarios hands it out),
// at loads NewScenarioSource rejects: each must stream nothing. An
// unchecked load can panic a shape's construction or spin its arrival
// process forever, so each case runs under a recover and a timeout.
func TestScenarioNewHostileLoads(t *testing.T) {
	app := Masstree()
	for _, sc := range Scenarios() {
		for _, load := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-300} {
			t.Run(fmt.Sprintf("%s/%v", sc.Name, load), func(t *testing.T) {
				if _, err := NewScenarioSource(sc.Name, app, load, 3, 1); err == nil {
					t.Fatal("NewScenarioSource accepted the load")
				}
				done := make(chan string, 1)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							done <- fmt.Sprint("panicked: ", r)
						}
					}()
					src := sc.New(app, load, 3, 1)
					n := 0
					for n < 4 {
						if _, ok := src.Next(); !ok {
							break
						}
						n++
					}
					if n > 0 || src.Len() != 0 {
						done <- fmt.Sprintf("streamed %d requests, Len %d", n, src.Len())
						return
					}
					done <- ""
				}()
				select {
				case msg := <-done:
					if msg != "" {
						t.Fatal(msg)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("no answer within 10 s")
				}
			})
		}
	}
}
