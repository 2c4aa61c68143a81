// Command benchmark is the engine's one benchmark: five workloads, each a
// closed loop of back-to-back jobs on fresh storage tiers and clusters,
// every job checked against a serial oracle. See README.md.
//
//	bash benchmark/run.sh                       every workload, both passes
//	bash benchmark/run.sh -workload groupby_cpu -trace 0
//	bash benchmark/run.sh -sets 5               repeatability of the end-to-end metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// result is the last line of a single-workload, single-pass run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all); one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 47, "input seed (1009 is the held-out seed)")
	seconds := fs.Float64("seconds", 20, "how long each pass runs back-to-back jobs")
	trace := fs.Int("trace", -1, "0: end-to-end pass only, 1: traced pass only (default: both)")
	sets := fs.Int("sets", 0, "repeatability mode: run the end-to-end pass N times per workload, alternating order")
	quick := fs.Bool("quick", false, "4 jobs per pass on 1/8 the records")
	outDir := fs.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir, log: stdout}
	if *sets > 0 {
		return runSets(selected, *sets, opt)
	}

	all := make(map[string]map[string]metric)
	ok := true
	var last *passResult
	for i := range selected {
		w := &selected[i]
		all[w.name] = make(map[string]metric)
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			res, spans := w.runPass(traced, opt)
			printMetrics(stdout, w, res)
			for k, m := range res.metrics {
				all[w.name][k] = m
			}
			if traced {
				if err := writeJSON(filepath.Join(*outDir, "trace-"+w.name+".json"), spans); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
			ok = ok && res.failed == 0 && res.attempted > 0
			last = res
		}
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), all); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The driver's contract: one workload, one pass, one JSON object last,
	// and exit 0 once it is printed — failures are in the object.
	if len(selected) == 1 && *trace >= 0 {
		r := result{Correct: ok, Attempted: last.attempted, Failed: last.failed, Metrics: make(map[string]valueUnit)}
		for k, m := range last.metrics {
			if !informational(k) {
				r.Metrics[k] = valueUnit{m.Value, m.Unit}
			}
		}
		line, _ := json.Marshal(r)
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printMetrics prints one line per metric: workload, name, value, unit and
// the sample count behind it.
func printMetrics(out io.Writer, w *workload, res *passResult) {
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.metrics[k]
		fmt.Fprintf(out, "%-16s %-34s %16.6g %-6s n=%d%s\n", w.name, k, m.Value, m.Unit, m.N, simulatedNote(w))
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
