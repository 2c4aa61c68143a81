package baseline

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestSparkCrashesOnSkewedClickLog(t *testing.T) {
	t.Parallel()
	// 32 GB at s=1: the hot region's reducer working set exceeds the
	// 16 GB task memory limit regardless of partition count (a region key
	// cannot be split across reducers).
	r := Spark().RunClickLog(sim.Default(), 32e9, 1.0)
	if !r.OOM {
		t.Fatalf("expected OOM, got runtime %.1fs", r.Runtime)
	}
	// The uniform run finishes.
	u := Spark().RunClickLog(sim.Default(), 32e9, 0)
	if u.OOM || u.Crashed {
		t.Fatalf("uniform run crashed: %+v", u)
	}
}

func TestHadoopSpillsInsteadOfCrashing(t *testing.T) {
	t.Parallel()
	r := Hadoop().RunClickLog(sim.Default(), 32e9, 1.0)
	if r.OOM || r.Crashed {
		t.Fatalf("Hadoop must spill, not crash: %+v", r)
	}
	u := Hadoop().RunClickLog(sim.Default(), 32e9, 0)
	if r.Runtime < 2*u.Runtime {
		t.Errorf("skew degradation only %.2fx (paper: large)", r.Runtime/u.Runtime)
	}
}

func TestBaselineOrderingUniform(t *testing.T) {
	t.Parallel()
	spark := Spark().RunClickLog(sim.Default(), 32e9, 0)
	hadoop := Hadoop().RunClickLog(sim.Default(), 32e9, 0)
	if spark.Runtime >= hadoop.Runtime {
		t.Fatalf("Spark (%.1fs) must beat Hadoop (%.1fs)", spark.Runtime, hadoop.Runtime)
	}
}

func TestPartitionSweepPicksBest(t *testing.T) {
	t.Parallel()
	m := Spark()
	best := m.RunClickLog(sim.Default(), 32e9, 1.0)
	// The reported result must be at least as good as any single
	// configuration (or a crash only if everything crashes).
	for _, parts := range m.PartitionSweep {
		r := m.runClickLogOnce(sim.Default(), 32e9, 1.0, parts)
		if !r.OOM && best.OOM {
			t.Fatalf("sweep returned a crash although %d partitions finished", parts)
		}
		if !r.OOM && !best.OOM && r.Runtime < best.Runtime-1e-9 {
			t.Fatalf("sweep missed better config: %d partitions at %.1fs < %.1fs",
				parts, r.Runtime, best.Runtime)
		}
	}
}

func TestJoinBaselineTimesOutOnBigSkew(t *testing.T) {
	t.Parallel()
	r := Spark().RunHashJoin(sim.Default(), 32e9, 320e9, 1.0)
	if !r.OOM && r.Runtime <= 12*3600 {
		t.Fatalf("big skewed Spark join finished in %.0fs; paper: >12h", r.Runtime)
	}
	u := Spark().RunHashJoin(sim.Default(), 32e9, 320e9, 0)
	if u.OOM || u.Runtime > 3600 {
		t.Fatalf("uniform Spark join: %+v", u)
	}
}

func TestGraphXThrashesAtRMAT30(t *testing.T) {
	t.Parallel()
	vertices := float64(int64(1) << 30)
	edges := vertices * 16 * 16
	r := GraphX().RunPageRank(sim.Default(), edges, vertices*16, 5, 1.0)
	if !r.Crashed {
		t.Fatalf("GraphX RMAT-30 finished in %.0fs; paper: >12h", r.Runtime)
	}
	// RMAT-24 fits and finishes.
	v24 := float64(int64(1) << 24)
	small := GraphX().RunPageRank(sim.Default(), v24*16*16, v24*16, 5, 1.0)
	if small.Crashed {
		t.Fatalf("GraphX RMAT-24 crashed: %s", small.CrashReason)
	}
}

func TestTimeoutHours(t *testing.T) {
	t.Parallel()
	if !math.IsInf(TimeoutHours(Result{Result: sim.Result{Crashed: true}}), 1) {
		t.Fatal("crashed result must map to +Inf hours")
	}
	if got := TimeoutHours(Result{Result: sim.Result{Runtime: 7200}}); got != 2 {
		t.Fatalf("got %.1f hours", got)
	}
}

func TestSpillAmplificationDefaultsToMemAmplification(t *testing.T) {
	t.Parallel()
	m := Model{SortFactor: 1, ShuffleIO: 1, MemAmplification: 10, SpillPenalty: 5, TaskMemLimit: 1e9}
	job := sim.Job{Tasks: []sim.Task{{Name: "t", Phase: 1, InputBytes: 5e8, CPURate: 100e6}}}
	m.applyCosts(&job)
	// 5e8 × 10 = 5e9 > 1e9 → spill penalty applies.
	if job.Tasks[0].CPURate != 100e6/5 {
		t.Fatalf("spill penalty not applied: %.0f", job.Tasks[0].CPURate)
	}
}
