package main

import (
	"sort"
	"strings"
)

// tracedUnits names the per-job metrics the traced pass derives from spans
// and engine counters; each is reported as the median over the traced jobs.
var tracedUnits = map[string]string{
	"hurricane.read_self_s":  "s",
	"hurricane.write_self_s": "s",
	"apps.compute_self_s":    "s",

	"transport.calls_per_job":   "count",
	"transport.calls_per_chunk": "ratio",
	"transport.calls.insert":    "count",
	"transport.calls.readAt":    "count",
	"transport.calls.remove":    "count",
	"transport.calls.sample":    "count",
	"transport.calls.sketch":    "count",
	"transport.calls.seal":      "count",
	"transport.retries_per_job": "count",
	"transport.bytes_per_rec":   "B",

	"transport.call_us_p50":   "us",
	"transport.call_us_p99":   "us",
	"transport.client_busy_s": "s",
	"transport.wire_self_s":   "s",
	"storage.handle_us_p50":   "us",
	"storage.handle_us_p99":   "us",
	"storage.handle_busy_s":   "s",

	"core.task_bodies":     "count",
	"core.slot_busy_share": "ratio",
	"core.start_delay_ms":  "ms",
	"core.stage_gap_ms":    "ms",
	"core.tail_delay_ms":   "ms",

	"ctrl.clones":              "count",
	"ctrl.splits":              "count",
	"ctrl.isolations":          "count",
	"ctrl.max_load_over_bound": "ratio",
	"ctrl.wall_over_ideal":     "ratio",
}

// spreadFan is the engine's default record-level spread fan for an isolated
// heavy key (MasterConfig.SplitFan): the most consumers one key can use.
const spreadFan = 2

// analyze turns one traced job's spans into the per-job layer metrics.
// Spans that do not lie inside the job span (a worker cancelled after the
// job finished) are dropped first, so every child lies inside its parent.
func (jt *jobTrace) analyze(w *workload, in *input, s jobSample) map[string]float64 {
	var root span
	for _, sp := range jt.spans {
		if sp.ID == jt.root {
			root = sp
		}
	}
	kept := jt.spans[:0]
	for _, sp := range jt.spans {
		if sp.Start >= root.Start && sp.End <= root.End {
			kept = append(kept, sp)
		}
	}
	jt.spans = kept

	m := make(map[string]float64, len(tracedUnits))
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }

	var calls, handles, bodies []span
	self := selfTimes(jt.spans)
	for _, sp := range jt.spans {
		if name := selfMetric(sp.Name); name != "" {
			m[name] += sec(self[sp.ID])
		}
		switch {
		case strings.HasPrefix(sp.Name, "transport.call."):
			calls = append(calls, sp)
			if name := "transport.calls." + strings.TrimPrefix(sp.Name, "transport.call."); tracedUnits[name] != "" {
				m[name]++ // one of the six reported ops
			}
		case strings.HasPrefix(sp.Name, "storage.handle."):
			handles = append(handles, sp)
		case strings.Contains(sp.Name, ".task:"), strings.Contains(sp.Name, ".merge:"):
			bodies = append(bodies, sp)
		}
	}

	durs := func(ss []span) (us []float64, busy float64, bytes int64) {
		for _, sp := range ss {
			us = append(us, float64(sp.Dur)/1e3)
			busy += sec(sp.Dur)
			bytes += sp.Bytes
		}
		return
	}
	callUS, clientBusy, bytes := durs(calls)
	handleUS, handleBusy, _ := durs(handles)
	records := float64(len(in.probe))
	m["transport.calls_per_job"] = float64(len(calls))
	if jt.chunks > 0 {
		m["transport.calls_per_chunk"] = float64(len(calls)) / float64(jt.chunks)
	}
	m["transport.retries_per_job"] = float64(jt.retries)
	m["transport.bytes_per_rec"] = float64(bytes) / records
	m["transport.call_us_p50"] = quantile(callUS, 0.50)
	m["transport.call_us_p99"] = quantile(callUS, 0.99)
	m["transport.client_busy_s"] = clientBusy
	m["transport.wire_self_s"] = clientBusy - handleBusy
	m["storage.handle_us_p50"] = quantile(handleUS, 0.50)
	m["storage.handle_us_p99"] = quantile(handleUS, 0.99)
	m["storage.handle_busy_s"] = handleBusy

	// The scheduling wait seen from outside: when bodies ran, relative to
	// the job span.
	if len(bodies) > 0 {
		sort.Slice(bodies, func(a, b int) bool { return bodies[a].Start < bodies[b].Start })
		var busy, covered, last int64
		hi := bodies[0].Start
		for _, b := range bodies {
			busy += b.Dur
			if lo := max(b.Start, hi); b.End > lo {
				covered += b.End - lo
				hi = b.End
			}
			last = max(last, b.End)
		}
		m["core.task_bodies"] = float64(len(bodies))
		m["core.slot_busy_share"] = float64(busy) / (float64(root.Dur) * float64(w.slots()))
		m["core.start_delay_ms"] = float64(bodies[0].Start-root.Start) / 1e6
		m["core.stage_gap_ms"] = float64(last-bodies[0].Start-covered) / 1e6
		m["core.tail_delay_ms"] = float64(root.End-last) / 1e6
	}

	m["ctrl.clones"] = float64(s.stats.Clones)
	m["ctrl.splits"] = float64(s.stats.Splits)
	m["ctrl.isolations"] = float64(s.stats.Isolations)
	// Distance from the load lower bound for the measured key frequencies:
	// no placement can give the busiest keyed-stage worker fewer records
	// than an even share, nor fewer than the top key's records over the
	// spread fan.
	var maxLoad int64
	for _, l := range jt.loads {
		maxLoad = max(maxLoad, l)
	}
	bound := max(records/float64(w.slots()), float64(in.topKeyCount)/spreadFan)
	m["ctrl.max_load_over_bound"] = float64(maxLoad) / bound
	if w.costNS > 0 {
		m["ctrl.wall_over_ideal"] = s.wall / (records * float64(w.costNS) / 1e9 / float64(w.slots()))
	}
	return m
}
