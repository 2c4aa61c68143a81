package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// TestUtilizationMatchesPaper: Eq. 1 at the b values the paper quotes:
// ≥63% at b=1, 86% at b=2, 95% at b=3, >99% at b=10.
func TestUtilizationMatchesPaper(t *testing.T) {
	cases := []struct {
		b    int
		want float64
	}{{1, 0.63}, {2, 0.86}, {3, 0.95}, {10, 0.99}}
	for _, c := range cases {
		got := Utilization(c.b, 32)
		if got < c.want {
			t.Errorf("rho(%d,32) = %.3f, want >= %.2f", c.b, got, c.want)
		}
	}
	// The paper: "over 99% utilization even for thousands of storage
	// nodes" at b=10.
	if Utilization(10, 4096) < 0.99 {
		t.Errorf("rho(10,4096) = %.4f", Utilization(10, 4096))
	}
	if Utilization(0, 32) != 0 || Utilization(1, 0) != 0 {
		t.Error("degenerate utilization must be 0")
	}
}

func TestUtilizationMonotonicQuick(t *testing.T) {
	f := func(bRaw, mRaw uint8) bool {
		b := int(bRaw%16) + 1
		m := int(mRaw%64) + 1
		u1 := Utilization(b, m)
		u2 := Utilization(b+1, m)
		return u1 > 0 && u1 <= 1 && u2 >= u1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillConservesAndCaps(t *testing.T) {
	entries := []demandEntry{
		{ioDem: 100}, {ioDem: 50}, {ioDem: 10},
	}
	waterFill(entries, 100)
	var sum float64
	for _, e := range entries {
		if e.ioGot > e.ioDem+1e-9 {
			t.Fatalf("entry granted %f > demand %f", e.ioGot, e.ioDem)
		}
		sum += e.ioGot
	}
	if sum > 100+1e-6 {
		t.Fatalf("granted %f > pool 100", sum)
	}
	// Proportional sharing: grants are proportional to demand when the
	// pool is oversubscribed (100:50:10 demand on a pool of 100).
	if math.Abs(entries[0].ioGot-62.5) > 0.1 || math.Abs(entries[2].ioGot-6.25) > 0.1 {
		t.Fatalf("grants not proportional: %+v", entries)
	}
}

func TestWaterFillSurplus(t *testing.T) {
	entries := []demandEntry{{ioDem: 10}, {ioDem: 20}}
	waterFill(entries, 1000)
	if entries[0].ioGot != 10 || entries[1].ioGot != 20 {
		t.Fatalf("surplus pool must satisfy all: %+v", entries)
	}
}

func TestWaterFillQuick(t *testing.T) {
	f := func(demRaw []uint16, poolRaw uint16) bool {
		if len(demRaw) == 0 {
			return true
		}
		if len(demRaw) > 32 {
			demRaw = demRaw[:32]
		}
		entries := make([]demandEntry, len(demRaw))
		var total float64
		for i, d := range demRaw {
			entries[i].ioDem = float64(d)
			total += float64(d)
		}
		pool := float64(poolRaw)
		waterFill(entries, pool)
		var granted float64
		for _, e := range entries {
			if e.ioGot < -1e-9 || e.ioGot > e.ioDem+1e-6 {
				return false
			}
			granted += e.ioGot
		}
		// Work-conserving: grant min(pool, total demand) up to epsilon.
		want := math.Min(pool, total)
		return granted <= want+1e-3 && granted >= want*0.999-1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTaskRuntime(t *testing.T) {
	cfg := Default()
	cfg.Startup = 0
	cfg.Cloning = false
	cfg.PerTaskOverhead = 0
	// One CPU-bound task: runtime = input / rate.
	job := Job{Tasks: []Task{{
		Name: "t", Phase: 1, InputBytes: 1e9, CPURate: 100e6, Cloneable: false,
	}}}
	res := Run(cfg, job)
	if math.Abs(res.Runtime-10) > 0.5 {
		t.Fatalf("runtime %.2f, want ~10s", res.Runtime)
	}
}

func TestCloningSpeedsUpSkewedJob(t *testing.T) {
	mk := func(cloning bool) Result {
		cfg := Default()
		cfg.Cloning = cloning
		cfg.Startup = 0
		// One huge task plus many small tasks (skew).
		job := Job{}
		job.Tasks = append(job.Tasks, Task{
			Name: "big", Phase: 1, InputBytes: 64e9, CPURate: 100e6, Cloneable: true,
		})
		for i := 0; i < 16; i++ {
			job.Tasks = append(job.Tasks, Task{
				Name: "small", Phase: 1, InputBytes: 1e9, CPURate: 100e6, Cloneable: true,
			})
		}
		return Run(cfg, job)
	}
	with := mk(true)
	without := mk(false)
	if with.Clones == 0 {
		t.Fatal("expected clones")
	}
	if with.Runtime >= without.Runtime {
		t.Fatalf("cloning did not help: %.1fs vs %.1fs", with.Runtime, without.Runtime)
	}
	if without.Runtime/with.Runtime < 2 {
		t.Errorf("cloning speedup only %.2fx on 64x skew", without.Runtime/with.Runtime)
	}
}

func TestCloningStopsAtStorageBound(t *testing.T) {
	cfg := Default()
	cfg.Startup = 0
	// A task whose per-worker CPU rate is high: a few workers saturate
	// the disk pool, so cloning must stop well short of all slots.
	job := Job{Tasks: []Task{{
		Name: "io", Phase: 1, InputBytes: 500e9, OutputRatio: 1,
		CPURate: 1e9, Cloneable: true,
	}}}
	res := Run(cfg, job)
	pool := cfg.DiskBW * cfg.DiskEfficiency * float64(cfg.Machines)
	maxUseful := int(pool/(1e9*2)) + 2
	if res.MaxWorkers["io"] > maxUseful+2 {
		t.Errorf("cloned to %d workers; storage supports ~%d", res.MaxWorkers["io"], maxUseful)
	}
}

func TestMergeOnlyWhenCloned(t *testing.T) {
	cfg := Default()
	cfg.Startup = 0
	cfg.Cloning = false
	job := Job{Tasks: []Task{{
		Name: "m", Phase: 1, InputBytes: 1e9, CPURate: 100e6,
		Mergeable: true, Cloneable: true,
	}}}
	res := Run(cfg, job)
	if res.MergeTime > 0 {
		t.Fatalf("uncloned mergeable task must not merge (%.1fs)", res.MergeTime)
	}
}

func TestPhaseBarriers(t *testing.T) {
	cfg := Default()
	cfg.Startup = 0
	cfg.Cloning = false
	job := Job{Tasks: []Task{
		{Name: "p1", Phase: 1, InputBytes: 1e9, CPURate: 100e6},
		{Name: "p2", Phase: 2, InputBytes: 2e9, CPURate: 100e6},
	}}
	res := Run(cfg, job)
	if res.PhaseRuntime[1] < 9 || res.PhaseRuntime[2] < 18 {
		t.Fatalf("phase runtimes %.1f/%.1f, want ~10/~20",
			res.PhaseRuntime[1], res.PhaseRuntime[2])
	}
	if math.Abs(res.Runtime-(res.PhaseRuntime[1]+res.PhaseRuntime[2])) > 1 {
		t.Fatalf("phases must run sequentially: %.1f vs %.1f+%.1f",
			res.Runtime, res.PhaseRuntime[1], res.PhaseRuntime[2])
	}
}

func TestComputeCrashRestartsTask(t *testing.T) {
	cfg := Default()
	cfg.Startup = 0
	cfg.Cloning = false
	job := Job{Tasks: []Task{{
		Name: "t", Phase: 1, InputBytes: 10e9, CPURate: 100e6,
	}}}
	clean := Run(cfg, job)
	crashed := Run(cfg, job, CrashEvent{Time: clean.Runtime / 2, Machine: 0})
	// The restarted task loses its progress, so the crashed run is
	// roughly half a task longer... unless the task was placed on a
	// different machine. Either way it must not be faster.
	if crashed.Runtime < clean.Runtime-1 {
		t.Fatalf("crash made the job faster: %.1f vs %.1f", crashed.Runtime, clean.Runtime)
	}
}

func TestMasterCrashPausesCloning(t *testing.T) {
	cfg := Default()
	cfg.Startup = 0
	job := Job{Tasks: []Task{{
		Name: "big", Phase: 1, InputBytes: 100e9, CPURate: 100e6, Cloneable: true,
	}}}
	clean := Run(cfg, job)
	paused := Run(cfg, job, CrashEvent{Time: 2, Machine: -1, MasterOutage: 10})
	if paused.Runtime < clean.Runtime-1 {
		t.Fatalf("master outage sped up the job: %.1f vs %.1f", paused.Runtime, clean.Runtime)
	}
}

func TestLocalVsSpreadPlacement(t *testing.T) {
	// With data local to one machine, that machine's disk bounds the
	// whole job; spreading lifts the bound.
	mk := func(spread bool) Result {
		cfg := Default()
		cfg.Machines = 8
		cfg.Startup = 0
		cfg.Cloning = false
		cfg.MemoryPerMachine = 1 // force disk mode
		job := Job{Tasks: []Task{{
			Name: "t", Phase: 1, InputBytes: 80e9, CPURate: 1e9, Home: 0,
		}}}
		cfg.SpreadData = spread
		return Run(cfg, job)
	}
	local := mk(false)
	spread := mk(true)
	if spread.Runtime >= local.Runtime {
		t.Fatalf("spreading not faster: %.1f vs %.1f", spread.Runtime, local.Runtime)
	}
}

func TestClickLogJobShape(t *testing.T) {
	job := ClickLogJob(ClickLogParams{TotalInput: 32e9, Skew: 1})
	var p1, p2, p3 int
	var p2Bytes float64
	for _, task := range job.Tasks {
		switch task.Phase {
		case 1:
			p1++
		case 2:
			p2++
			p2Bytes += task.InputBytes
		case 3:
			p3++
		}
	}
	if p1 != 1 || p2 != 64 || p3 != 64 {
		t.Fatalf("task counts %d/%d/%d", p1, p2, p3)
	}
	if math.Abs(p2Bytes-32e9*ClickLogPhase1OutRatio) > 1e6 {
		t.Fatalf("phase 2 input %.0f", p2Bytes)
	}
}

func TestPartitionWeights(t *testing.T) {
	// Subdividing regions preserves total mass and reduces the largest
	// partition proportionally.
	base := LargestPartitionFraction(64, 1.0, 64)
	fine := LargestPartitionFraction(64, 1.0, 4096)
	if math.Abs(fine-base/64) > 1e-9 {
		t.Fatalf("4096 partitions: largest %.5f, want %.5f", fine, base/64)
	}
	coarse := partitionWeights(64, 1.0, 32)
	if len(coarse) != 32 {
		t.Fatalf("32 partitions produced %d", len(coarse))
	}
	var sum float64
	for _, w := range coarse {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("coarse weights sum %.5f", sum)
	}
}

func TestHashJoinJobSkewConcentrates(t *testing.T) {
	uniform := HashJoinJob(HashJoinParams{BuildBytes: 1e9, ProbeBytes: 10e9, Skew: 0, Partitions: 32})
	skewed := HashJoinJob(HashJoinParams{BuildBytes: 1e9, ProbeBytes: 10e9, Skew: 1, Partitions: 32})
	maxIn := func(j Job) float64 {
		max := 0.0
		for _, t := range j.Tasks {
			if t.Phase == 2 && t.InputBytes > max {
				max = t.InputBytes
			}
		}
		return max
	}
	if maxIn(skewed) < 5*maxIn(uniform) {
		t.Fatalf("skewed hot partition %.2e vs uniform %.2e", maxIn(skewed), maxIn(uniform))
	}
}

func TestMemoryVsDiskMode(t *testing.T) {
	small := Run(Default(), ClickLogJob(ClickLogParams{TotalInput: 1e9}))
	big := Run(Default(), ClickLogJob(ClickLogParams{TotalInput: 320e9}))
	// The disk-mode run must be far slower than memory-mode per byte.
	perByteSmall := small.Runtime / 1e9
	perByteBig := big.Runtime / 320e9
	if perByteBig < perByteSmall {
		t.Skipf("startup dominates; small %.2e big %.2e", perByteSmall, perByteBig)
	}
}

func TestTimelineSampled(t *testing.T) {
	res := Run(Default(), ClickLogJob(ClickLogParams{TotalInput: 320e9}))
	if len(res.Timeline) < 10 {
		t.Fatalf("timeline has %d samples", len(res.Timeline))
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Time <= res.Timeline[i-1].Time {
			t.Fatal("timeline not monotonic")
		}
	}
}

// TestCloneSweepDoublesPerSweep: every worker of an overloaded task sends one
// overload signal and the controller grants one clone per signal, so a
// CPU-bound task grows 1 → 2 → 4 workers per sweep until the free slots run
// out. A controller that grants one clone per task per sweep reads 3, not 4.
func TestCloneSweepDoublesPerSweep(t *testing.T) {
	cfg := Default()
	cfg.Machines, cfg.SlotsPerMachine = 3, 2
	s := newSim(cfg, Job{Tasks: []Task{{
		Name: "t", Phase: 1, InputBytes: 1e12, CPURate: 1e6, Cloneable: true,
	}}}, nil)
	r := s.runs[0]
	s.placeWorker(r)
	for sweep, want := range []int{2, 4, 6, 6} {
		s.step(s.runs)
		s.now += cfg.CloneInterval
		s.cloneSweep(s.runs)
		if got := len(r.workers); got != want || !r.cpuBound {
			t.Fatalf("sweep %d: %d workers (CPU-bound %v), want %d", sweep+1, got, r.cpuBound, want)
		}
	}
	if s.res.Clones != 5 {
		t.Fatalf("%d clones, want 5", s.res.Clones)
	}
}
