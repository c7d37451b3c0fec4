// Command run is the benchmark's end-to-end runner. It builds the three
// binaries under test, generates the inputs from -seed, drives one of
// four closed-loop, fixed-work workloads over loopback HTTP on a single
// keep-alive connection, checks every answer, and prints each
// end-to-end metric as "name unit value" followed by one JSON result
// line. See bench/README.md.
//
//	go -C bench run ./run -workload topk_uniform -seed 1
//	go -C bench run ./run -all -seed 1
//	go -C bench run ./run -selfcheck
//	go -C bench run ./run -workload topk_uniform -trace 1   # per-layer, via bench/trace
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"kdash/bench/internal/harness"
	"kdash/bench/internal/workload"
)

// setups is how many times a run sets the workload up; setup_s is their
// median, and the last one is measured.
const setups = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: topk_uniform, topk_hotset_cached, update_stream_wal or cluster_topk")
		all       = fs.Bool("all", false, "run all four workloads")
		seed      = fs.Int64("seed", 1, "seed of the graph, the request lists and the update stream")
		seconds   = fs.Int("seconds", harness.RefSeconds, "measured time the fixed request counts are scaled to fill on the reference box")
		trace     = fs.Int("trace", 0, "1 = run the per-layer traced run (bench/trace) instead")
		smoke     = fs.Bool("smoke", false, "2,000-node graph, 2 passes of 200 requests: a seconds-long check that everything works")
		selfcheck = fs.Bool("selfcheck", false, "two interleaved sets of -runs runs per workload; fail if a spread or a gap exceeds its bound")
		runs      = fs.Int("runs", 10, "runs per set of -selfcheck (at least 5), each on its own seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs := harness.Specs
	if !*all && !*selfcheck {
		spec, err := harness.SpecByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "run:", err, "(or pass -all)")
			return 2
		}
		specs = []harness.Spec{spec}
	}
	if *seconds < 1 || (*selfcheck && *runs < 5) {
		fmt.Fprintln(os.Stderr, "run: -seconds must be at least 1 and -runs at least 5")
		return 2
	}
	root, err := harness.Root()
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		return 1
	}
	binDir, err := harness.Build(root, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		return 1
	}
	r := &runner{root: root, binDir: binDir, smoke: *smoke, stdout: stdout}
	switch {
	case *trace == 1:
		return r.traced(args)
	case *selfcheck:
		return r.selfcheck(specs, *seconds, *runs)
	}
	code := 0
	for _, spec := range specs {
		res, err := r.measure(harness.NewPlan(spec, *seed, *seconds, *smoke))
		if err != nil {
			fmt.Fprintf(os.Stderr, "run: %s: %v\n", spec.Name, err)
			return 1
		}
		if err := r.report(res); err != nil {
			fmt.Fprintln(os.Stderr, "run:", err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "run: %s: %d of %d operations failed; first: %s\n", spec.Name, res.Failed, res.Attempted, res.FirstError)
			code = 1
		}
	}
	return code
}

type runner struct {
	root   string
	binDir string
	smoke  bool
	stdout io.Writer
}

// traced hands the run to the traced run's own binary, which prints the
// per-layer metrics in the same form.
func (r *runner) traced(args []string) int {
	cmd := exec.Command(filepath.Join(r.binDir, "bench-trace"), args...)
	cmd.Stdout, cmd.Stderr = r.stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "run:", err)
		return 1
	}
	return 0
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in print order; BENCHMARK.json
// carries the same names with their bounds.
var endToEnd = []struct {
	name, unit string
	higher     bool
}{
	{"setup_s", "s", false},
	{"req_p50_us", "us", false},
	{"goodput_rps", "1/s", true},
	{"server_cpu_us_per_req", "us", false},
	{"peak_rss_mb", "MB", false},
}

// PassRecord is the raw record of one measured pass.
type PassRecord struct {
	Queries     int     `json:"queries"`
	Failed      int     `json:"failed"`
	WallSeconds float64 `json:"wallSeconds"`
	P50US       float64 `json:"p50Us"`
	GoodputRPS  float64 `json:"goodputRps"`
	CPUPerReqUS float64 `json:"cpuPerReqUs"`
	CalibUS     float64 `json:"hostCalibUs"`
	Updates     int     `json:"updates"`
}

// Env is the environment stamp of a run file.
type Env struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Kernel     string `json:"kernel"`
	// The overrides in force, as found in the environment ("" = unset).
	EnvGOMAXPROCS string `json:"envGOMAXPROCS"`
	EnvGOGC       string `json:"envGOGC"`
}

// Result is one run: what the run file holds and the result line is cut
// from.
type Result struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Seconds       int               `json:"seconds"`
	Smoke         bool              `json:"smoke,omitempty"`
	Env           Env               `json:"env"`
	Metrics       map[string]Metric `json:"metrics"`
	Correct       bool              `json:"correct"`
	Attempted     int               `json:"attempted"`
	OK            int               `json:"ok"`
	Failed        int               `json:"failed"`
	FirstError    string            `json:"firstError,omitempty"`
	QuerySamples  int               `json:"querySamples"`
	PerPass       int               `json:"queriesPerPass"`
	Passes        []PassRecord      `json:"passes"`
	SetupSeconds  []float64         `json:"setupSeconds"`
	BuildSeconds  float64           `json:"indexBuildSeconds"`
	ReadySeconds  float64           `json:"serverReadySeconds"`
	MeasuredS     float64           `json:"measuredSeconds"`
	OracleQueries int               `json:"oracleQueries"`
	OracleWrong   int               `json:"oracleWrong"`
	RecoverMS     float64           `json:"recoverMs,omitempty"`
}

// measure runs one workload once: three set-ups (the last is kept), the
// measured passes, the oracle, and on WAL workloads the durability check.
func (r *runner) measure(plan harness.Plan) (*Result, error) {
	res := &Result{Workload: plan.Name, Seed: plan.Seed, Seconds: plan.Seconds,
		Smoke: r.smoke, PerPass: plan.PerPass, Metrics: map[string]Metric{}}
	work := filepath.Join(harness.BuildDir(r.root), "work", fmt.Sprintf("%s-%d-%d", plan.Name, plan.Seed, os.Getpid()))
	defer os.RemoveAll(work)

	var d *harness.Deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.Close()
		}
		var err error
		if d, err = harness.Deploy(r.binDir, filepath.Join(work, fmt.Sprint("setup", i)), plan); err != nil {
			return nil, err
		}
		res.SetupSeconds = append(res.SetupSeconds, d.SetupSeconds)
	}
	defer func() { d.Close() }()
	// The set-ups just wrote 300 MB; flush it now, or the file system's
	// next commit writes it out underneath the first measured passes.
	syscall.Sync()
	res.BuildSeconds, res.ReadySeconds = d.Inputs.BuildSeconds, d.Inst.ReadySeconds
	res.Env = stamp(r.root)

	fail := func(n int, err error) {
		res.Failed += n
		if res.FirstError == "" && err != nil {
			res.FirstError = err.Error()
		}
	}
	var p50s, goodputs, cpus []float64
	for i := 1; i <= plan.Passes; i++ {
		calib := workload.HostCalibUS()
		s := d.ReplayPass(i, false)
		ok := float64(s.OKQueries())
		rec := PassRecord{Queries: s.OKQueries(), Failed: s.Failed, WallSeconds: s.WallSeconds, CalibUS: calib, Updates: len(s.AckUS),
			P50US: workload.Median(s.LatenciesUS), GoodputRPS: ok / s.WallSeconds, CPUPerReqUS: s.CPUSeconds * 1e6 / max(ok, 1)}
		res.Passes = append(res.Passes, rec)
		res.Attempted += s.Attempted
		res.QuerySamples += s.OKQueries()
		res.MeasuredS += s.WallSeconds
		fail(s.Failed, s.FirstErr)
		p50s, goodputs, cpus = append(p50s, rec.P50US), append(goodputs, rec.GoodputRPS), append(cpus, rec.CPUPerReqUS)
	}
	rss, err := d.Inst.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":               workload.Median(res.SetupSeconds),
		"req_p50_us":            workload.Median(p50s),
		"goodput_rps":           workload.Median(goodputs),
		"server_cpu_us_per_req": workload.Median(cpus),
		"peak_rss_mb":           rss,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = Metric{values[m.name], m.unit}
	}

	n, wrong, first := d.CheckOracle()
	if plan.WAL {
		ms, changed, err := d.CrashAndRecover()
		if err != nil {
			return nil, err
		}
		res.RecoverMS = ms
		n2, wrong2, first2 := d.CheckOracle(changed...)
		n, wrong = n+n2, wrong+wrong2
		if first == nil {
			first = first2
		}
	}
	res.OracleQueries, res.OracleWrong = n, wrong
	res.Attempted += n
	fail(wrong, first)
	res.OK = res.Attempted - res.Failed
	res.Correct = res.Failed == 0
	return res, nil
}

// stamp records where the run happened. The commit comes from git when
// the checkout is a repository; the build itself is not VCS-stamped.
func stamp(root string) Env {
	e := Env{Commit: "unknown", CPU: workload.CPUModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: workload.Kernel(),
		EnvGOMAXPROCS: os.Getenv("GOMAXPROCS"), EnvGOGC: os.Getenv("GOGC")}
	if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(rev))
		if dirty, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
			e.Commit += "+modified"
		}
	}
	return e
}

// report prints the metrics, writes the run file and ends with the one
// result line.
func (r *runner) report(res *Result) error {
	fmt.Fprintf(r.stdout, "# %s seed=%d passes=%d queries/pass=%d measured=%.1fs query_samples=%d\n",
		res.Workload, res.Seed, len(res.Passes), res.PerPass, res.MeasuredS, res.QuerySamples)
	for _, m := range endToEnd {
		fmt.Fprintf(r.stdout, "%s %s %.4f\n", m.name, m.unit, res.Metrics[m.name].Value)
	}
	fmt.Fprintf(r.stdout, "ops_attempted count %d\nops_ok count %d\nops_failed count %d\n", res.Attempted, res.OK, res.Failed)
	if err := r.save(res, ""); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.stdout, "%s\n", line)
	return err
}

// save writes the run file bench/out/run-<workload>-<seed><suffix>.json.
func (r *runner) save(res *Result, suffix string) error {
	outDir := filepath.Join(r.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-%d%s.json", res.Workload, res.Seed, suffix)), append(file, '\n'), 0o644)
}

// selfcheck repeats what the benchmark's acceptance rule does: two
// interleaved sets of runs of every workload on the same binaries, each
// run on its own seed. For every end-to-end metric it prints both
// medians, their quartiles, the spread (interquartile range over median)
// and the gap by which the second median is worse than the first, and
// fails if a spread or a gap exceeds the metric's bound. setup_s is held
// to the gap only: its spread is reported, not bounded.
func (r *runner) selfcheck(specs []harness.Spec, seconds, runs int) int {
	bounds, err := readBounds(r.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		return 1
	}
	code := 0
	start := time.Now()
	for _, spec := range specs {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < runs; i++ {
			for set := range sets {
				res, err := r.measure(harness.NewPlan(spec, int64(i+1), seconds, r.smoke))
				if err == nil {
					err = r.save(res, "-set"+string(rune('A'+set)))
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "run: %s: %v\n", spec.Name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "run: %s seed %d: %d operations failed; first: %s\n", spec.Name, i+1, res.Failed, res.FirstError)
					code = 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d done (%.0fs elapsed)\n", spec.Name, i+1, time.Since(start).Seconds())
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			ma, mb := workload.Median(a), workload.Median(b)
			gap := (mb - ma) / ma
			if m.higher {
				gap = -gap
			}
			a1, a3 := workload.Quartiles(a)
			b1, b3 := workload.Quartiles(b)
			sa, sb := workload.Spread(a), workload.Spread(b)
			verdict := "ok"
			if gap > bounds[m.name] || (m.name != "setup_s" && max(sa, sb) > bounds[m.name]) {
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Fprintf(r.stdout, "%-20s %-22s A %.4f [%.4f %.4f] spread %.2f%%  B %.4f [%.4f %.4f] spread %.2f%%  gap %+.2f%%  bound %.0f%%  %s\n",
				spec.Name, m.name+" "+m.unit, ma, a1, a3, 100*sa, mb, b1, b3, 100*sb, 100*gap, 100*bounds[m.name], verdict)
		}
	}
	return code
}

// readBounds reads the end-to-end bounds from BENCHMARK.json, so the
// self-check and the acceptance rule cannot drift apart.
func readBounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range endToEnd {
		if _, ok := bounds[m.name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json: no end_to_end metric %q", m.name)
		}
	}
	return bounds, nil
}
