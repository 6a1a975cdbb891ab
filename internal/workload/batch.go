package workload

import (
	"math/rand"

	"rubik/internal/cpu"
)

// BatchApp is a throughput-oriented application model (the SPEC CPU2006
// role in the paper's colocation study, Sec. 7). Work is measured in
// abstract units (think: fixed instruction blocks); each unit needs
// CyclesPerUnit compute cycles and MemNsPerUnit memory-bound time, so
// throughput and its frequency sensitivity follow from the app's
// memory-boundness exactly as for LC requests.
type BatchApp struct {
	Name string
	// CyclesPerUnit is the compute work per unit.
	CyclesPerUnit float64
	// MemNsPerUnit is the memory-bound time per unit (does not scale with
	// frequency; the colocated memory system is partitioned, so it does not
	// depend on co-runners either — paper Sec. 6).
	MemNsPerUnit float64
	// ActivityFactor scales dynamic core power (compute-bound apps switch
	// more of the core).
	ActivityFactor float64
}

// UnitsPerSec returns throughput at frequency fMHz.
func (b BatchApp) UnitsPerSec(fMHz int) float64 {
	perUnitNs := b.CyclesPerUnit*1000/float64(fMHz) + b.MemNsPerUnit
	return 1e9 / perUnitNs
}

// PowerW returns the core power while running this app at fMHz.
func (b BatchApp) PowerW(fMHz int, m cpu.PowerModel) float64 {
	m.ActivityFactor = b.ActivityFactor
	return m.ActivePower(fMHz)
}

// OptimalTPWFreq returns the grid frequency maximizing units per joule —
// "each batch app runs at its optimal throughput per watt" (paper Sec. 7).
// Because the memory system is partitioned, it does not depend on
// co-runners, as the paper notes.
func (b BatchApp) OptimalTPWFreq(g cpu.Grid, m cpu.PowerModel) int {
	best := g.Min()
	bestTPW := -1.0
	for _, f := range g.Steps() {
		if f > cpu.NominalMHz {
			// Batch apps do not run above nominal, to stay within TDP
			// (paper Sec. 7).
			break
		}
		tpw := b.UnitsPerSec(f) / b.PowerW(f, m)
		if tpw > bestTPW {
			bestTPW = tpw
			best = f
		}
	}
	return best
}

// BatchPool returns the SPEC-like profile pool, spanning compute-bound
// (namd-like: tiny memory share) to memory-bound (mcf-like: memory
// dominated). Units are sized so one unit takes ~1 ms at nominal frequency.
func BatchPool() []BatchApp {
	// memFrac is the memory-bound share of unit time at nominal frequency.
	mk := func(name string, memFrac, activity float64) BatchApp {
		const unitNsAtNominal = 1e6
		memNs := unitNsAtNominal * memFrac
		computeNs := unitNsAtNominal - memNs
		return BatchApp{
			Name:           name,
			CyclesPerUnit:  computeNs * float64(cpu.NominalMHz) / 1000,
			MemNsPerUnit:   memNs,
			ActivityFactor: activity,
		}
	}
	return []BatchApp{
		mk("namd", 0.05, 1.10),
		mk("povray", 0.07, 1.05),
		mk("hmmer", 0.10, 1.05),
		mk("gobmk", 0.15, 0.95),
		mk("sjeng", 0.15, 0.95),
		mk("h264ref", 0.18, 1.00),
		mk("perlbench", 0.22, 0.95),
		mk("gcc", 0.30, 0.90),
		mk("bzip2", 0.32, 0.90),
		mk("astar", 0.38, 0.85),
		mk("xalancbmk", 0.45, 0.85),
		mk("soplex", 0.52, 0.80),
		mk("omnetpp", 0.55, 0.80),
		mk("milc", 0.62, 0.75),
		mk("lbm", 0.68, 0.75),
		mk("mcf", 0.72, 0.70),
	}
}

// FindBatchApp looks a batch app up in the pool by name.
func FindBatchApp(name string) (BatchApp, bool) {
	for _, b := range BatchPool() {
		if b.Name == name {
			return b, true
		}
	}
	return BatchApp{}, false
}

// Mixes draws nmixes random mixes of perMix apps from the pool, with
// replacement across mixes but not within a mix, deterministically by seed
// (the paper uses 20 random 6-app SPEC mixes, Sec. 7).
func Mixes(nmixes, perMix int, seed int64) [][]BatchApp {
	pool := BatchPool()
	r := rand.New(rand.NewSource(seed))
	out := make([][]BatchApp, nmixes)
	for m := range out {
		perm := r.Perm(len(pool))
		mix := make([]BatchApp, 0, perMix)
		for i := 0; i < perMix && i < len(perm); i++ {
			mix = append(mix, pool[perm[i]])
		}
		out[m] = mix
	}
	return out
}
