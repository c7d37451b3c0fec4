package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kdash/bench/internal/workload"
)

// Deployment is one set-up of a workload: generated inputs, running
// processes, the client's connection and the runner's own graph.
type Deployment struct {
	Plan   Plan
	Inputs *Inputs
	Inst   *Instance
	Client *Client
	Oracle *Oracle
	// SetupSeconds covers graph generation, the kdash build and save,
	// process start until /healthz is 200, and the warm-up pass.
	SetupSeconds float64

	binDir  string
	dir     string
	list    []int
	updates [][2]workload.Edge
}

// Deploy sets a workload up under dir (created here, removed by the
// caller after Close):
// it generates the graph, builds the index with the kdash CLI, starts
// the processes and replays the warm-up pass.
func Deploy(binDir, dir string, plan Plan) (*Deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d := &Deployment{Plan: plan, binDir: binDir, dir: dir, list: plan.List()}
	var err error
	if d.Inputs, err = Prepare(binDir, dir, plan.Graph, plan.Seed); err != nil {
		d.Close()
		return nil, err
	}
	// One batch per add/remove pair of every pass, plus the durability
	// marker.
	d.updates = workload.UpdateEdges(plan.Graph.Nodes, d.Inputs.Edges,
		(plan.Passes+1)*plan.UpdatesPerPass/2+1, plan.Seed)
	d.Oracle = NewOracle(plan.Graph.Nodes, d.Inputs.Edges)
	if d.Inst, err = Start(binDir, d.Inputs, plan.Spec, d.walDir(), dir); err != nil {
		d.Close()
		return nil, err
	}
	d.Client = NewClient(d.Inst.URL)
	if warm := d.ReplayPass(0, false); warm.Failed > 0 {
		d.Close()
		return nil, fmt.Errorf("harness: warm-up pass of %s: %d of %d requests failed: %w",
			plan.Name, warm.Failed, warm.Attempted, warm.FirstErr)
	}
	d.SetupSeconds = time.Since(t0).Seconds()
	return d, nil
}

func (d *Deployment) walDir() string { return filepath.Join(d.dir, "wal") }

// Close stops the processes and waits for them. It leaves the set-up's
// files for the caller to remove once nothing is being timed: freeing a
// 100 MB index makes the kernel commit and discard for seconds
// afterwards, which slowed the passes that followed by 5-10 %.
func (d *Deployment) Close() {
	if d.Client != nil {
		d.Client.Close()
	}
	if d.Inst != nil {
		d.Inst.Stop()
	}
}

// PassStats is what one replayed pass measured.
type PassStats struct {
	Started     time.Time
	LatenciesUS []float64 // successful queries, in list order
	StartsUS    []float64 // when each of those was sent, from Started
	AckUS       []float64 // update acknowledgements
	StallUS     []float64 // first query after each acknowledged update
	Traces      []*Trace  // per successful query, when traced
	Attempted   int       // queries and updates sent
	Failed      int
	FirstErr    error
	WallSeconds float64
	CPUSeconds  float64 // server-side processes, over the pass
}

// OKQueries is the number of successful, structurally correct queries.
func (s *PassStats) OKQueries() int { return len(s.LatenciesUS) }

// ReplayPass sends the queries of pass i (0 = warm-up) one after another
// and, on update workloads, the pass's updates at their fixed places.
// Update g of the run adds batch g/2 when g is even and removes it when
// odd, so every pass leaves the graph as it found it.
func (d *Deployment) ReplayPass(i int, trace bool) PassStats {
	qs := d.Plan.Pass(d.list, i)
	u := d.Plan.UpdatesPerPass
	var s PassStats
	fail := func(err error) {
		s.Failed++
		if s.FirstErr == nil {
			s.FirstErr = err
		}
	}
	cpu0, cpuErr := d.Inst.CPUSeconds()
	t0 := time.Now()
	s.Started = t0
	nextUpdate, afterUpdate := 0, false
	for j, q := range qs {
		// Updates sit mid-way through each of the pass's u equal
		// stretches, so every barrier stall lands inside the pass.
		if nextUpdate < u && j == (2*nextUpdate+1)*len(qs)/(2*u) {
			g := i*u + nextUpdate
			batch, remove := d.updates[g/2][:], g%2 == 1
			s.Attempted++
			if ack, err := d.Client.Update(batch, remove); err != nil {
				fail(err)
			} else {
				d.Oracle.Apply(batch, remove)
				s.AckUS = append(s.AckUS, us(ack))
				afterUpdate = true
			}
			nextUpdate++
		}
		s.Attempted++
		sent := time.Since(t0)
		r, lat, err := d.Client.TopK(q, TopK, trace)
		if err != nil {
			fail(err)
			continue
		}
		s.LatenciesUS = append(s.LatenciesUS, us(lat))
		s.StartsUS = append(s.StartsUS, us(sent))
		if trace {
			s.Traces = append(s.Traces, r.Trace)
		}
		if afterUpdate {
			s.StallUS = append(s.StallUS, us(lat))
			afterUpdate = false
		}
	}
	s.WallSeconds = time.Since(t0).Seconds()
	cpu1, err := d.Inst.CPUSeconds()
	if cpuErr != nil || err != nil {
		fail(fmt.Errorf("harness: reading server CPU time: %v %v", cpuErr, err))
	}
	s.CPUSeconds = cpu1 - cpu0
	return s
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// CheckOracle re-issues OracleSize seeded queries, plus any extra nodes,
// against the iterative method on the runner's graph.
func (d *Deployment) CheckOracle(extra ...int) (attempted, wrong int, first error) {
	qs := append(workload.OracleQueries(d.Plan.Graph.Nodes, OracleSize, d.Plan.Seed), extra...)
	wrong, first = d.Oracle.Check(d.Client, qs, TopK)
	return len(qs), wrong, first
}

// CrashAndRecover is the durability check of a WAL workload: it posts
// one last acknowledged update that stays in the graph, kills the server
// with SIGKILL, restarts it on the same -wal-dir and returns the time
// from exec to the first 200, plus the nodes whose answers the last
// update changed. The caller then runs the oracle: it passes only if
// every acknowledged update, the last included, survived the kill.
func (d *Deployment) CrashAndRecover() (recoverMS float64, changed []int, err error) {
	marker := d.updates[len(d.updates)-1][:]
	if _, err := d.Client.Update(marker, false); err != nil {
		return 0, nil, fmt.Errorf("harness: durability marker update: %w", err)
	}
	d.Oracle.Apply(marker, false)
	d.Client.Close()
	d.Inst.Kill()
	if d.Inst, err = Start(d.binDir, d.Inputs, d.Plan.Spec, d.walDir(), d.dir); err != nil {
		return 0, nil, fmt.Errorf("harness: restart after SIGKILL: %w", err)
	}
	d.Client = NewClient(d.Inst.URL)
	for _, e := range marker {
		changed = append(changed, e.From)
	}
	return d.Inst.ReadySeconds * 1e3, changed, nil
}
