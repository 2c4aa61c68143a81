package main

import "fmt"

// runSets is the repeatability mode: the end-to-end pass runs n times per
// workload, the workload order alternating between sets, and each metric's
// median, quartiles and relative inter-quartile spread are printed beside
// its bound on that workload. A metric whose spread exceeds its bound cannot
// resolve a regression of that size and is marked unresolved.
func runSets(selected []workload, n int, opt options) int {
	values := make(map[string]map[string][]float64)
	failed := 0
	for set := 0; set < n; set++ {
		for i := range selected {
			w := &selected[i]
			if set%2 == 1 {
				w = &selected[len(selected)-1-i]
			}
			res, _ := w.runPass(false, opt)
			failed += res.failed
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for k, m := range res.metrics {
				values[w.name][k] = append(values[w.name][k], m.Value)
			}
			fmt.Fprintf(opt.log, "set %d/%d %s: job_s_p50 %.4f s, %d jobs, %d failed\n",
				set+1, n, w.name, res.metrics["job_s_p50"].Value, res.attempted, res.failed)
		}
	}
	fmt.Fprintf(opt.log, "\n%-16s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for i := range selected {
		w := &selected[i]
		for m, e := range endToEnd {
			vs := values[w.name][e.name]
			med, q1, q3 := quantile(vs, 0.5), quantile(vs, 0.25), quantile(vs, 0.75)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound := "     -" // printed only, not a BENCHMARK.json metric
			if m < gatedEndToEnd {
				bound = fmt.Sprintf("%5.0f%%", 100*w.bounds[m])
				if spread > w.bounds[m] {
					bound += " unresolved"
				}
			}
			fmt.Fprintf(opt.log, "%-16s %-18s %12.6g %12.6g %12.6g %7.2f%% %s\n",
				w.name, e.name, med, q1, q3, 100*spread, bound)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
