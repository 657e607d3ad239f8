// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of the system sees, and per-layer metrics taken
// from outside by timing calls into each layer's exported functions. See
// README.md for how to run it and how a later issue cites its names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lcasgd/internal/ps"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// checker counts verification operations. The harness never edits program
// output to pass: a failed check prints its reason and is counted.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// checkCells counts one operation per cell run: every number finite, errors
// in [0,1], one curve point per eval boundary, and churn that really
// applied on every churn cell.
func (c *checker) checkCells(workload string, cells []summary) {
	unit := func(v float64) bool { return v >= 0 && v <= 1 }
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, s := range cells {
		ok := unit(s.FinalTestErr) && finite(s.VirtualMs) && s.VirtualMs > 0 &&
			finite(s.MeanStaleness) && s.Updates > 0
		if s.Points != nil {
			ok = ok && curveComplete(s.Points, s.EvalEvery, s.Epochs, s.Algo != ps.SSGD)
			for _, p := range s.Points {
				ok = ok && unit(p.TrainErr) && unit(p.TestErr) && finite(p.Time)
			}
		}
		c.check(ok, "%s: cell %s returned an out-of-range or incomplete result: %+v", workload, s.Name, s)
		if s.Churn {
			c.check(s.Events > 0, "%s: cell %s ran under churn but no scenario event applied", workload, s.Name)
		}
	}
}

// metricValue is one emitted number. Detail says how it was measured; it is
// printed in the human report and kept out of the JSON.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Detail string  `json:"-"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

type options struct {
	root    string
	seed    uint64
	seconds float64
	smoke   bool
}

func (o options) outDir() string { return filepath.Join(o.root, "bench", "out") }

// tmpDir is where robust_store keeps its experiment store: inside the
// checkout, beside the build.
func (o options) tmpDir() string {
	dir := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("%v", err)
	}
	return dir
}

// emit fills the result's metrics from values, in registry order, and
// fails the run if the two disagree: every declared metric exactly once.
func emit(defs []metricDef, values map[string]metricValue, chk *checker) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			chk.check(false, "metric %s has no finite value", d.Name)
			v.Value = 0
		}
		v.Unit = d.Unit
		fmt.Printf("%-28s %16.6g %-10s %s\n", d.Name, v.Value, d.Unit, v.Detail)
		res.Metrics[d.Name] = v
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			chk.check(false, "metric %s is emitted but not declared", name)
		}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	return res
}

// runEndToEnd is a --trace 0 run: set-up several times, then the body in a
// closed loop until opt.seconds have passed, tracing off. At the frozen
// sizes one body outlasts run_seconds, so a run times exactly one.
func runEndToEnd(workload string, opt options) result {
	setup := setups(opt.tmpDir())[workload]
	chk := &checker{}
	nSetup, minBodies := 3, 1
	if opt.smoke {
		nSetup, minBodies = 1, 2 // two bodies, so the repetition check runs
	}

	var st *state
	var setupS []float64
	for i := 0; i < nSetup; i++ {
		if st != nil {
			st.cleanup()
		}
		t := time.Now()
		st = setup(opt.seed)
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer st.cleanup()

	var walls []float64
	var first outcome
	for start := time.Now(); len(walls) < minBodies || time.Since(start).Seconds() < opt.seconds; {
		o := st.body(chk)
		chk.checkCells(workload, o.cells)
		if len(walls) == 0 {
			first = o
		} else {
			same := digest(o.cells) == digest(first.cells) && o.ckptSum == first.ckptSum
			chk.check(same, "%s: repetition %d differs bitwise from the first", workload, len(walls))
		}
		walls = append(walls, o.wallS)
	}

	for _, c := range first.cells {
		fmt.Printf("cell %-28s test err %.4f  updates %6d  simulated %.1f s\n", c.Name, c.FinalTestErr, c.Updates, c.VirtualMs/1e3)
	}
	setupT, wallT := summarize(setupS), summarize(walls)
	span := func(t timing) string { return fmt.Sprintf("median of %d, min %.4g max %.4g", t.N, t.Min, t.Max) }
	return emit(endToEnd, map[string]metricValue{
		"setup_s":             {Value: setupT.P50, Detail: span(setupT)},
		"wall_s":              {Value: wallT.P50, Detail: span(wallT)},
		"train_samples_per_s": {Value: float64(first.samples) / wallT.P50, Detail: fmt.Sprintf("%d samples per body", first.samples)},
	}, chk)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatal("peak rss: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				fatal("peak rss: %q: %v", line, err)
			}
			return kb / 1024
		}
	}
	fatal("peak rss: no VmHWM in /proc/self/status")
	return 0
}

// environment is the block every result carries.
type environment struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func currentEnvironment(opt options) environment {
	env := environment{
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Seed: opt.seed, Seconds: opt.seconds,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout made by git archive has no .git; the commit then stays
	// unknown rather than guessed. A symbolic HEAD is followed one step, and
	// reported by name if its ref is packed.
	if head, err := os.ReadFile(filepath.Join(opt.root, ".git", "HEAD")); err == nil {
		env.Commit = strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(env.Commit, "ref: "); ok {
			env.Commit = name
			if b, err := os.ReadFile(filepath.Join(opt.root, ".git", name)); err == nil {
				env.Commit = strings.TrimSpace(string(b))
			}
		}
	}
	return env
}

// findRoot walks up from the working directory to the checkout's root.
func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			fatal("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func main() {
	var opt options
	workload := flag.String("workload", "", "run one workload and print its result line; empty runs the whole suite")
	flag.Uint64Var(&opt.seed, "seed", 7, "seed of the generated inputs: cell seeds and churn timelines")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "how long one run repeats the timed body")
	trace := flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny sizes, for the harness's own test")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare every end-to-end metric with its bound")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	opt.root = findRoot()
	if opt.smoke {
		applySmokeSizes()
		opt.seconds = 0
	}

	if *workload == "" {
		os.Exit(runSuite(opt, *selfcheck))
	}
	if _, ok := setups("")[*workload]; !ok {
		fatal("unknown workload %q", *workload)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer f.Close()
	}
	var res result
	switch *trace {
	case 0:
		res = runEndToEnd(*workload, opt)
	case 1:
		res = runTraced(*workload, opt)
	default:
		fatal("-trace takes 0 or 1")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	pprof.StopCPUProfile()
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
