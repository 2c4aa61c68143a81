// Command hurricane-bench runs the comparison grid on the embedded engine
// (4 x 2 slots, simulated per-record consumer cost), one cell per
// mechanism measured against its absence:
//
//	hurricane-bench [policy] [sched] [stream] [plan]   (none: all four)
//
// policy ablates the mitigation policy sets, sched fair-share leasing,
// stream warm-started partition maps and plan the planner's skewed join.
// Each arm runs 3 times, arms interleaved, and every repeat is checked
// against the cell's serial oracle. Per arm it prints the median [min,
// max] of the cell's timed quantity, the ratio of medians to the cell's
// last (baseline) arm, and the median repeat's counters. It writes no
// file, and exits non-zero if any repeat fails or misses its oracle.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"repro/hurricane"
)

// repeats is how many times every arm of a cell runs.
const repeats = 3

// counts is a run's verifiable output: one key → count table per job or
// stream window, in a fixed order.
type counts []map[uint64]int64

// result is one repeat of one arm.
type result struct {
	ms  float64               // the cell's timed quantity
	st  hurricane.MasterStats // clones, splits and isolations are printed
	own int                   // the cell's own counter, if it has one
	out counts
}

// cell is one comparison on the engine.
type cell struct {
	about string   // the workload and the timed quantity, printed first
	arms  []string // the last arm is the baseline ratios are taken to
	own   string   // name of result.own, "" if the cell has none
	want  counts   // the serial oracle every repeat must match
	run   func(ctx context.Context, arm string) (result, error)
}

// grid is the table of cells; building one generates its data and
// computes its oracle. A bare invocation runs them in cellOrder.
var grid = map[string]func() cell{"policy": policyCell, "sched": schedCell, "stream": streamCell, "plan": planCell}
var cellOrder = []string{"policy", "sched", "stream", "plan"}

func main() {
	names := os.Args[1:]
	if len(names) == 0 {
		names = cellOrder
	}
	for _, name := range names {
		if grid[name] == nil {
			fmt.Fprintf(os.Stderr, "hurricane-bench: unknown cell %q (cells: %v)\n", name, cellOrder)
			os.Exit(2)
		}
	}
	status := 0
	for _, name := range names {
		if err := report(os.Stdout, name, grid[name]()); err != nil {
			fmt.Fprintf(os.Stderr, "hurricane-bench: %s: %v\n", name, err)
			status = 1
		}
	}
	os.Exit(status)
}

// report runs a cell and prints one line per arm.
func report(w io.Writer, name string, c cell) error {
	fmt.Fprintf(w, "%s: %s; ratios to %s\n", name, c.about, c.arms[len(c.arms)-1])
	res, err := runCell(c)
	if err != nil {
		return err
	}
	base, _, _ := summarize(res[len(res)-1])
	for a, rs := range res {
		med, lo, hi := summarize(rs)
		fmt.Fprintf(w, "  %-12s median %7.1f ms [%7.1f, %7.1f]  %5.2fx  clones %3d  splits %2d  isolations %2d",
			c.arms[a], med.ms, lo, hi, med.ms/base.ms, med.st.Clones, med.st.Splits, med.st.Isolations)
		if c.own != "" {
			fmt.Fprintf(w, "  %s %d", c.own, med.own)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runCell runs every arm of c repeats times and checks every repeat
// against c.want. Repeat r runs the arms in their order rotated left by r,
// so no arm always runs first or last. Results come back in arm order.
func runCell(c cell) ([][]result, error) {
	res := make([][]result, len(c.arms))
	for r := 0; r < repeats; r++ {
		for i := range c.arms {
			a := (i + r) % len(c.arms)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			out, err := c.run(ctx, c.arms[a])
			cancel()
			if err == nil {
				err = check(out.out, c.want)
			}
			if err != nil {
				return nil, fmt.Errorf("%s, repeat %d: %w", c.arms[a], r+1, err)
			}
			res[a] = append(res[a], out)
		}
	}
	return res, nil
}

// summarize returns the median repeat of rs by timed quantity (the upper
// median of an even count) and the least and greatest timed quantity.
func summarize(rs []result) (med result, lo, hi float64) {
	sorted := slices.Clone(rs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ms < sorted[j].ms })
	return sorted[len(sorted)/2], sorted[0].ms, sorted[len(sorted)-1].ms
}

// check compares a repeat's output with the oracle, table by table and key
// by key, and names a difference if there is one.
func check(got, want counts) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle miss: %d tables, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("oracle miss: table %d: %d keys, want %d", i, len(got[i]), len(want[i]))
		}
		for k, n := range want[i] {
			if got[i][k] != n {
				return fmt.Errorf("oracle miss: table %d key %d: %d, want %d", i, k, got[i][k], n)
			}
		}
	}
	return nil
}
