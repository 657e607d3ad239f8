package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// child runs one workload in a process of its own, so that peak_rss_mb is
// the workload's and not the suite's, and returns its result line.
func child(opt options, workload string, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatUint(opt.seed, 10), "-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64)}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last []byte
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = bytes.Clone(sc.Bytes())
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s -trace %d printed no result line (%v): %w", workload, trace, runErr, err)
	}
	return res, nil
}

// suiteResults is one pass over every workload: results[workload][trace].
type suiteResults map[string][2]result

func runPass(opt options, traces []int) (suiteResults, int) {
	out, failed := suiteResults{}, 0
	for _, w := range workloadDefs {
		var pair [2]result
		for _, trace := range traces {
			res, err := child(opt, w.Name, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				failed++
				continue
			}
			failed += res.Failed
			pair[trace] = res
		}
		out[w.Name] = pair
	}
	return out, failed
}

func printPass(res suiteResults, defs []metricDef, trace int) {
	fmt.Printf("%-28s %-10s", "metric", "unit")
	for _, w := range workloadDefs {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-28s %-10s", d.Name, d.Unit)
		for _, w := range workloadDefs {
			fmt.Printf(" %14.6g", res[w.Name][trace].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
}

// runSuite runs every workload with tracing off and prints every
// end-to-end metric, then makes the traced runs for the per-layer metrics.
// With selfcheck it instead runs the untraced suite twice and holds the
// difference of every end-to-end metric against its bound.
func runSuite(opt options, selfcheck bool) int {
	env := currentEnvironment(opt)
	envLine, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envLine)

	if selfcheck {
		return runSelfcheck(opt)
	}
	res, failed := runPass(opt, []int{0, 1})
	fmt.Println("\nend-to-end (tracing off)")
	printPass(res, endToEnd, 0)
	fmt.Println("\nper-layer (traced run)")
	printPass(res, perLayer, 1)
	attempted := 0
	for _, pair := range res {
		attempted += pair[0].Attempted + pair[1].Attempted
	}
	fmt.Printf("\nfailed_share %d/%d\n", failed, attempted)
	if err := os.MkdirAll(opt.outDir(), 0o755); err != nil {
		fatal("%v", err)
	}
	if err := writeJSON(filepath.Join(opt.outDir(), "results.json"), map[string]any{"environment": env, "claim": nil, "results": res}); err != nil {
		fatal("%v", err)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func runSelfcheck(opt options) int {
	first, failedA := runPass(opt, []int{0})
	second, failedB := runPass(opt, []int{0})
	exit := 0
	if failedA+failedB > 0 {
		exit = 1
	}
	fmt.Printf("%-14s %-22s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			a, b := first[w.Name][0].Metrics[d.Name].Value, second[w.Name][0].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS"
				exit = 1
			}
			fmt.Printf("%-14s %-22s %12.6g %12.6g %8.1f%% %6.0f%%%s\n", w.Name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	return exit
}
