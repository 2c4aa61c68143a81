package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The perf-trajectory closer (ROADMAP item 5: "the perf trajectory stops
// being hand-curated"). Every real-engine benchmark writes a BENCH_*.json
// document with one headline ratio — the number its PR was accepted on.
// "trend" folds those headlines into one machine-checkable document,
// BENCH_TREND.json, plus a markdown table (BENCH_TREND.md); "trend-check"
// recomputes the headlines from the BENCH documents in the tree and fails
// when one has regressed past its committed trend value minus tolerance.
// The check is deterministic — it re-reads documents rather than
// re-running benches — so it catches the real CI failure mode: a PR that
// regenerates a BENCH_*.json with a worse headline (or deletes one)
// without owning up to it in the trend.

// trendMetric describes one benchmark's headline ratio: where it lives,
// which direction is good, and how much drift trend-check tolerates.
type trendMetric struct {
	Bench  string // benchmark name (the hurricane-bench subcommand)
	File   string // committed document holding the headline
	Key    string // top-level key of the headline ratio
	Better string // "up" (speedups) or "down" (overheads)
	// TolRel is the allowed relative regression for "up" metrics (0.10 =
	// a 10% drop fails). TolAbs is the allowed absolute worsening for
	// "down" metrics (percent-point overheads, where relative tolerance
	// is meaningless around zero).
	TolRel float64
	TolAbs float64
}

// trendMetrics is the registry of headline ratios. Adding a benchmark =
// adding a row; trend-check fails when a registered file disappears, so
// removing one is an explicit edit here, not a silent drop.
var trendMetrics = []trendMetric{
	{Bench: "shuffle", File: "BENCH_shuffle.json", Key: "speedup_skew_aware_over_static", Better: "up", TolRel: 0.15},
	{Bench: "policy", File: "BENCH_policy.json", Key: "speedup_all_over_none", Better: "up", TolRel: 0.15},
	{Bench: "sched", File: "BENCH_sched.json", Key: "uni_speedup_fair_over_none", Better: "up", TolRel: 0.15},
	{Bench: "stream", File: "BENCH_stream.json", Key: "median_speedup_warm_over_cold", Better: "up", TolRel: 0.10},
	{Bench: "plan", File: "BENCH_plan.json", Key: "speedup_planner_over_naive", Better: "up", TolRel: 0.15},
	{Bench: "wire", File: "BENCH_wire_baseline.json", Key: "telemetry_overhead_pct", Better: "down", TolAbs: 5},
}

// trendEntry is one headline in BENCH_TREND.json.
type trendEntry struct {
	Bench  string  `json:"bench"`
	File   string  `json:"file"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Better string  `json:"better"`
}

// trendDoc is the BENCH_TREND.json shape.
type trendDoc struct {
	Note    string       `json:"note"`
	Entries []trendEntry `json:"entries"`
}

// readHeadline extracts one headline ratio from a BENCH document.
func readHeadline(m trendMetric) (float64, error) {
	data, err := os.ReadFile(m.File)
	if err != nil {
		return 0, fmt.Errorf("trend: %s (%s): %w", m.Bench, m.Key, err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trend: %s: %w", m.File, err)
	}
	raw, ok := doc[m.Key]
	if !ok {
		return 0, fmt.Errorf("trend: %s has no top-level key %q", m.File, m.Key)
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("trend: %s %s: %w", m.File, m.Key, err)
	}
	return v, nil
}

// collectTrend reads every registered headline from the tree.
func collectTrend() ([]trendEntry, error) {
	entries := make([]trendEntry, 0, len(trendMetrics))
	for _, m := range trendMetrics {
		v, err := readHeadline(m)
		if err != nil {
			return nil, err
		}
		entries = append(entries, trendEntry{
			Bench: m.Bench, File: m.File, Metric: m.Key, Value: v, Better: m.Better,
		})
	}
	return entries, nil
}

// trendMarkdown renders the trend as a markdown table.
func trendMarkdown(entries []trendEntry) string {
	var b strings.Builder
	b.WriteString("# Benchmark trend\n\n")
	b.WriteString("Headline ratios of every committed real-engine benchmark, aggregated by\n")
	b.WriteString("`hurricane-bench trend` and gated in CI by `hurricane-bench trend-check`.\n\n")
	b.WriteString("| bench | metric | value | better |\n")
	b.WriteString("|---|---|---:|---|\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "| %s | %s | %.4g | %s |\n", e.Bench, e.Metric, e.Value, e.Better)
	}
	return b.String()
}

// trendCmd regenerates BENCH_TREND.json and BENCH_TREND.md from the
// BENCH documents in the tree.
func trendCmd() error {
	entries, err := collectTrend()
	if err != nil {
		return err
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Bench != entries[b].Bench {
			return entries[a].Bench < entries[b].Bench
		}
		return entries[a].Metric < entries[b].Metric
	})
	doc := trendDoc{
		Note:    "headline ratios aggregated from the committed BENCH_*.json documents by `hurricane-bench trend`; gated by `hurricane-bench trend-check`",
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_TREND.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	md := trendMarkdown(entries)
	if err := os.WriteFile("BENCH_TREND.md", []byte(md), 0o644); err != nil {
		return err
	}
	fmt.Print(md)
	fmt.Printf("trend: wrote BENCH_TREND.json and BENCH_TREND.md (%d headlines)\n", len(entries))
	return nil
}

// trendCheckCmd verifies the tree's BENCH documents against the
// committed BENCH_TREND.json: every committed headline must still be
// readable and must not have worsened past its tolerance. New headlines
// not yet in the committed trend are reported but pass (commit them by
// re-running `hurricane-bench trend`).
func trendCheckCmd() error {
	data, err := os.ReadFile("BENCH_TREND.json")
	if err != nil {
		return fmt.Errorf("trend-check: no committed trend (run `hurricane-bench trend` and commit BENCH_TREND.json): %w", err)
	}
	var committed trendDoc
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("trend-check: BENCH_TREND.json: %w", err)
	}
	byKey := make(map[string]trendEntry, len(committed.Entries))
	for _, e := range committed.Entries {
		byKey[e.File+"#"+e.Metric] = e
	}
	failures := 0
	for _, m := range trendMetrics {
		fresh, err := readHeadline(m)
		if err != nil {
			fmt.Printf("trend-check: FAIL %s: %v\n", m.Bench, err)
			failures++
			continue
		}
		base, ok := byKey[m.File+"#"+m.Key]
		if !ok {
			fmt.Printf("trend-check: note: %s %s=%.4g not in committed trend yet (run `hurricane-bench trend`)\n",
				m.Bench, m.Key, fresh)
			continue
		}
		delete(byKey, m.File+"#"+m.Key)
		switch m.Better {
		case "up":
			floor := base.Value * (1 - m.TolRel)
			if fresh < floor {
				fmt.Printf("trend-check: FAIL %s %s: %.4g < floor %.4g (committed %.4g, tolerance %.0f%%)\n",
					m.Bench, m.Key, fresh, floor, base.Value, m.TolRel*100)
				failures++
				continue
			}
			fmt.Printf("trend-check: ok   %s %s: %.4g >= floor %.4g\n", m.Bench, m.Key, fresh, floor)
		case "down":
			ceil := base.Value + m.TolAbs
			if fresh > ceil {
				fmt.Printf("trend-check: FAIL %s %s: %.4g > ceiling %.4g (committed %.4g, tolerance +%.4g)\n",
					m.Bench, m.Key, fresh, ceil, base.Value, m.TolAbs)
				failures++
				continue
			}
			fmt.Printf("trend-check: ok   %s %s: %.4g <= ceiling %.4g\n", m.Bench, m.Key, fresh, ceil)
		}
	}
	// Committed entries whose metric vanished from the registry: the
	// trend and the registry must be edited together.
	for _, e := range byKey {
		fmt.Printf("trend-check: FAIL %s %s: committed in BENCH_TREND.json but no longer registered in trendMetrics\n",
			e.Bench, e.Metric)
		failures++
	}
	if failures > 0 {
		return fmt.Errorf("trend-check: %d headline(s) regressed or unreadable", failures)
	}
	fmt.Println("trend-check: all headlines within tolerance")
	return nil
}
