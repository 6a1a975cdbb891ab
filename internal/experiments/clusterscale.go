package experiments

import (
	"fmt"
	"io"

	"rubik/internal/cluster"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// ClusterScaleRow is one (cores, dispatcher, load) cell of the sweep.
type ClusterScaleRow struct {
	Cores      int
	Dispatcher string
	// Load is the per-core offered load; the cluster receives Cores times
	// this fraction of single-core nominal capacity.
	Load float64
	// TailMs is the pooled p95 response latency; BoundMs the single-core
	// Rubik bound every core targets.
	TailMs  float64
	BoundMs float64
	// MJPerReq is pooled active core energy per request.
	MJPerReq float64
	// BusyCores is the mean number of simultaneously busy cores.
	BusyCores float64
	// MaxShare is the largest fraction of requests routed to one core
	// (1/Cores = perfectly balanced).
	MaxShare float64
}

// ClusterScaleResult is the EXTENSION experiment "clusterscale": full
// multi-core server simulation (per-core Rubik controllers behind a
// request dispatcher) swept over core count, dispatch discipline and
// load. It exercises the cluster substrate the paper's 6-core CMP implies
// but per-core extrapolation hides: dispatch quality directly moves the
// pooled tail, so the energy Rubik can save depends on the dispatcher.
type ClusterScaleResult struct {
	App  string
	Rows []ClusterScaleRow
}

// ClusterScale sweeps cores x dispatcher x load on masstree with a fresh
// Rubik controller per core, sharding the independent cells across
// Options.Workers goroutines.
func ClusterScale(opts Options) (*ClusterScaleResult, error) {
	h := newHarness(opts)
	app, err := workload.AppByName("masstree")
	if err != nil {
		return nil, err
	}
	bound, err := h.bound(app)
	if err != nil {
		return nil, err
	}

	coreCounts := []int{1, 2, 4, 6}
	loads := []float64{0.3, 0.5, 0.7}
	if opts.Quick {
		coreCounts = []int{2, 6}
		loads = []float64{0.5}
	}

	type cell struct {
		cores int
		disp  int
		load  float64
	}
	var cells []cell
	nDisp := len(cluster.Dispatchers(0))
	for _, n := range coreCounts {
		for d := 0; d < nDisp; d++ {
			for _, load := range loads {
				cells = append(cells, cell{cores: n, disp: d, load: load})
			}
		}
	}

	rows := make([]ClusterScaleRow, len(cells))
	jobs := make([]func() error, len(cells))
	for i, cl := range cells {
		i, cl := i, cl
		jobs[i] = func() error {
			// Fresh dispatcher per cell: dispatchers are stateful and the
			// cells run concurrently.
			d := cluster.Dispatchers(opts.Seed)[cl.disp]
			n := opts.requests(app) * cl.cores
			tr := workload.GenerateAtLoad(app, cl.load*float64(cl.cores), n,
				opts.Seed+stableSeed(app.Name, cl.load)+int64(cl.cores))
			ccfg := cluster.Config{
				Cores:      cl.cores,
				Dispatcher: d,
				Core:       h.qcfg,
				NewPolicy: func(int) (queueing.Policy, error) {
					return h.rubik(bound, true)
				},
			}
			res, err := cluster.Run(tr, ccfg)
			if err != nil {
				return err
			}
			maxShare := 0.0
			for _, cnt := range res.Routed {
				if s := float64(cnt) / float64(len(tr.Requests)); s > maxShare {
					maxShare = s
				}
			}
			rows[i] = ClusterScaleRow{
				Cores:      cl.cores,
				Dispatcher: d.Name(),
				Load:       cl.load,
				TailMs:     ms(res.TailNs(TailPercentile, Warmup)),
				BoundMs:    ms(bound),
				MJPerReq:   res.EnergyPerRequestJ() * 1e3,
				BusyCores:  res.MeanBusyCores(),
				MaxShare:   maxShare,
			}
			return nil
		}
	}
	if err := RunParallel(opts.Workers, jobs...); err != nil {
		return nil, err
	}
	return &ClusterScaleResult{App: app.Name, Rows: rows}, nil
}

// Render writes the sweep table.
func (r *ClusterScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "clusterscale — %s: multi-core server, per-core Rubik, cores x dispatcher x load\n", r.App)
	header := []string{"cores", "dispatcher", "load", "p95 ms", "bound ms", "tail/bound", "mJ/req", "busy cores", "max share"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Cores),
			row.Dispatcher,
			fmt.Sprintf("%.0f%%", row.Load*100),
			fmt.Sprintf("%.3f", row.TailMs),
			fmt.Sprintf("%.3f", row.BoundMs),
			fmt.Sprintf("%.2f", row.TailMs/row.BoundMs),
			fmt.Sprintf("%.3f", row.MJPerReq),
			fmt.Sprintf("%.2f", row.BusyCores),
			fmt.Sprintf("%.2f", row.MaxShare),
		})
	}
	table(w, header, rows)
}
