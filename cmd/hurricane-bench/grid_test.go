package main

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"strings"
	"testing"
)

func cloneCounts(c counts) counts {
	out := make(counts, len(c))
	for i, m := range c {
		out[i] = maps.Clone(m)
	}
	return out
}

// TestChecksBite: every cell's oracle passes its own check, and the same
// output fails it with any one table's count off by one either way — a
// key count (policy, sched), a window's region count (stream), a key's
// match count and so the total, or a key's payload sum (plan) — with a key
// lost, or a table lost.
func TestChecksBite(t *testing.T) {
	for _, name := range cellOrder {
		c := grid[name]()
		if len(c.want) == 0 {
			t.Fatalf("%s: empty oracle", name)
		}
		if err := check(cloneCounts(c.want), c.want); err != nil {
			t.Errorf("%s: the oracle fails its own check: %v", name, err)
		}
		if check(c.want[1:], c.want) == nil {
			t.Errorf("%s: a missing table passes", name)
		}
		for i, table := range c.want {
			k := slices.Min(slices.Collect(maps.Keys(table)))
			for _, delta := range []int64{-1, 1} {
				got := cloneCounts(c.want)
				got[i][k] += delta
				if check(got, c.want) == nil {
					t.Errorf("%s: table %d key %d off by %d passes", name, i, k, delta)
				}
			}
			got := cloneCounts(c.want)
			delete(got[i], k)
			if check(got, c.want) == nil {
				t.Errorf("%s: table %d without key %d passes", name, i, k)
			}
		}
	}
}

// fakeCell has three arms whose repeats return the given times in call
// order, with the oracle's output unless wrong names the call (1-based)
// that returns a count off by one.
func fakeCell(times map[string][]float64, wrong int) (cell, *[]string) {
	var calls []string
	seen := map[string]int{}
	want := counts{{7: 3}}
	return cell{
		about: "fake",
		arms:  []string{"a", "b", "c"},
		own:   "repeat",
		want:  want,
		run: func(_ context.Context, arm string) (result, error) {
			calls = append(calls, arm)
			i := seen[arm]
			seen[arm]++
			out := cloneCounts(want)
			if len(calls) == wrong {
				out[0][7]++
			}
			return result{ms: times[arm][i], own: i, out: out}, nil
		},
	}, &calls
}

// TestRunner: arms run interleaved, rotated one place per repeat; the
// median repeat (and its counters), min and max come from each arm's own
// repeats; ratios are to the last arm; an oracle miss stops the cell.
func TestRunner(t *testing.T) {
	times := map[string][]float64{"a": {30, 10, 20}, "b": {5, 9, 7}, "c": {4, 2, 4}}
	c, calls := fakeCell(times, 0)
	var out bytes.Buffer
	if err := report(&out, "fake", c); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(*calls, " "); got != "a b c b c a c a b" {
		t.Errorf("run order %q, want rotation a b c / b c a / c a b", got)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		"fake: fake; ratios to c",
		"  a            median    20.0 ms [   10.0,    30.0]   5.00x  clones   0  repeat 2",
		"  b            median     7.0 ms [    5.0,     9.0]   1.75x  clones   0  repeat 2",
		"  c            median     4.0 ms [    2.0,     4.0]   1.00x  clones   0  repeat 0",
	}
	if !slices.Equal(lines, want) {
		t.Errorf("report:\n%s\nwant:\n%s", out.String(), strings.Join(want, "\n"))
	}

	if med, lo, hi := summarize([]result{{ms: 4}, {ms: 1}, {ms: 3}, {ms: 2}}); med.ms != 3 || lo != 1 || hi != 4 {
		t.Errorf("even count: median %v [%v, %v], want the upper median 3 [1, 4]", med.ms, lo, hi)
	}

	c, calls = fakeCell(times, 5)
	if _, err := runCell(c); err == nil || !strings.Contains(err.Error(), "oracle miss") {
		t.Errorf("a wrong count on the fifth run: err %v, want an oracle miss", err)
	} else if len(*calls) != 5 {
		t.Errorf("%d runs after an oracle miss on the fifth, want 5", len(*calls))
	}
}
