package ctrl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/shuffle"
	"repro/internal/sketch"
)

// The policy tests run entirely against synthetic telemetry: no cluster,
// no storage, no goroutines. A trace builds Snapshots by hand (or from a
// synthetic Zipf workload routed through a real PartitionMap) and feeds
// them to policies, asserting on the emitted Actions.

var t0 = time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)

func testConfig() Config {
	return Config{
		CloneInterval:    2 * time.Second,
		StorageBandwidth: 1 << 30,
		SpeculativeAfter: 8 * time.Second,
		SplitImbalance:   2,
		SplitMinRecords:  1000,
		SplitFan:         4,
		IsolateFraction:  0.5,
	}
}

// baseSnapshot probes every bag as deep and barely drained: cloning pays.
func baseSnapshot() *Snapshot {
	return &Snapshot{
		Version:    1,
		Now:        t0,
		FreeSlots:  4,
		TotalSlots: 8,
		Tasks:      map[string]*TaskTel{},
		Edges:      map[string]*EdgeTel{},
		SampleBag: func(string) *BagTel {
			return &BagTel{ReadBytes: 1 << 20, RemainingBytes: 1 << 30}
		},
	}
}

func runningTask(name string) *TaskTel {
	return &TaskTel{
		Name:      name,
		Scheduled: true,
		Workers:   1,
		StartedAt: t0.Add(-time.Minute),
		Inputs:    []string{name + ".in"},
	}
}

// partitionedTask is a running consumer of the Spread edge "shuf" with one
// live worker on each of the given leaves.
func partitionedTask(name string, leaves ...string) *TaskTel {
	t := runningTask(name)
	t.ConsumesEdge, t.EdgeSpread = "shuf", true
	t.Inputs = []string{"shuf"}
	t.Workers = len(leaves)
	t.Consumers = map[string]int{}
	for _, l := range leaves {
		t.Consumers[l] = 1
	}
	return t
}

// probeKiB answers depth probes from a table of remaining KiB per bag; a
// bag it does not list fails its probe.
func probeKiB(remaining map[string]int64) func(string) *BagTel {
	return func(bag string) *BagTel {
		kib, ok := remaining[bag]
		if !ok {
			return nil
		}
		return &BagTel{ReadBytes: 1 << 10, RemainingBytes: kib << 10}
	}
}

// zipfKeyNames builds a deterministic key universe whose hotK top-ranked
// keys all hash to base partition `target` — the canonical "many medium
// keys piled onto one partition" skew shape. Routing still goes through
// the real partitioner, so the resulting trace is exactly what producers
// would report.
func zipfKeyNames(base, keys, hotK, target int) [][]byte {
	part := func(key []byte) int { return int(shuffle.KeyHash(key) % uint64(base)) }
	names := make([][]byte, 0, keys)
	for next := 0; len(names) < hotK; next++ {
		cand := []byte(fmt.Sprintf("key-%06d", next))
		if part(cand) == target {
			names = append(names, cand)
		}
	}
	for next := 1 << 20; len(names) < keys; next++ {
		cand := []byte(fmt.Sprintf("key-%06d", next))
		if part(cand) != target {
			names = append(names, cand)
		}
	}
	return names
}

// zipfEdgeStats routes n Zipf(s)-distributed draws over the given key
// universe through pmap exactly the way a partitioned producer would,
// building the per-leaf counts and heavy-key candidates the master's
// sketch fetch returns.
func zipfEdgeStats(pmap *shuffle.PartitionMap, names [][]byte, s float64, n int, seed int64) *sketch.EdgeStats {
	rng := rand.New(rand.NewSource(seed))
	// Zipf ranks 1..len(names) with exponent s.
	weights := make([]float64, len(names))
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	stats := sketch.NewEdgeStats()
	byKey := make(map[string]uint64)
	for i := 0; i < n; i++ {
		r := rng.Float64() * total
		k := 0
		for r > weights[k] && k < len(names)-1 {
			r -= weights[k]
			k++
		}
		key := names[k]
		leaf := pmap.Route(key, i)
		stats.Counts[leaf]++
		stats.CM.Add(key, 1)
		byKey[string(key)]++
	}
	for k, c := range byKey {
		stats.Heavy = append(stats.Heavy, sketch.HeavyKey{Key: []byte(k), Count: c})
	}
	return stats
}

// TestClonePolicyTable drives ClonePolicy through a table of overload
// scenarios replayed as synthetic snapshots.
func TestClonePolicyTable(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Snapshot)
		overload Overload
		want     string // expected action kind, "" for none
	}{
		{
			name:     "overloaded task clones",
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "clone",
		},
		{
			name:     "epoch mismatch is stale",
			overload: Overload{Task: "map", Epoch: 1, Busy: 0.9},
			want:     "",
		},
		{
			name:     "merge workers never clone",
			overload: Overload{Task: "map", Merge: true, Busy: 0.9},
			want:     "",
		},
		{
			name:     "NoClone respected",
			mutate:   func(s *Snapshot) { s.Tasks["map"].NoClone = true },
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "",
		},
		{
			name:     "MaxClones caps workers",
			mutate:   func(s *Snapshot) { s.Tasks["map"].MaxClones = 1 },
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "",
		},
		{
			name:     "rate limited after recent clone",
			mutate:   func(s *Snapshot) { s.Tasks["map"].LastClone = t0.Add(-time.Second) },
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "",
		},
		{
			name:     "no free slots rejects",
			mutate:   func(s *Snapshot) { s.FreeSlots = 0 },
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "reject-clone",
		},
		{
			name: "partitioned consumer without spread or merge never clones",
			mutate: func(s *Snapshot) {
				s.Tasks["map"] = partitionedTask("map", "shuf.p1")
				s.Tasks["map"].EdgeSpread = false
			},
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "",
		},
		{
			name:     "partitioned spread consumer clones its physical partition",
			mutate:   func(s *Snapshot) { s.Tasks["map"] = partitionedTask("map", "shuf.p1") },
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "clone",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := baseSnapshot()
			snap.Tasks["map"] = runningTask("map")
			if tc.mutate != nil {
				tc.mutate(snap)
			}
			snap.Overloads = []Overload{tc.overload}
			p := &ClonePolicy{Cfg: testConfig()}
			actions := p.Evaluate(snap)
			if tc.want == "" {
				if len(actions) != 0 {
					t.Fatalf("want no actions, got %v", actions)
				}
				return
			}
			if len(actions) != 1 || actions[0].Kind() != tc.want {
				t.Fatalf("want one %q action, got %v", tc.want, actions)
			}
			if clone, ok := actions[0].(CloneTask); ok && snap.Tasks["map"].ConsumesEdge != "" {
				if len(clone.Inputs) != 1 || clone.Inputs[0] != "shuf.p1" {
					t.Fatalf("partitioned clone must target a physical partition, got %v", clone.Inputs)
				}
			}
		})
	}
}

// TestCloneHeuristic exercises Eq. 2 against synthetic bag depths: a
// fast-draining bag with little data left is not worth cloning; a slow
// task with most of its input remaining is.
func TestCloneHeuristic(t *testing.T) {
	cfg := testConfig()
	cfg.StorageBandwidth = 1 << 20 // 1 MB/s: I/O cost matters

	mk := func(read, remaining int64) *Snapshot {
		snap := baseSnapshot()
		snap.Tasks["map"] = runningTask("map")
		snap.Overloads = []Overload{{Task: "map", Busy: 0.9}}
		snap.SampleBag = func(string) *BagTel {
			return &BagTel{ReadBytes: read, RemainingBytes: remaining}
		}
		return snap
	}
	p := &ClonePolicy{Cfg: cfg}

	// Slow drain (little read after a minute), lots remaining: clone.
	fast := p.Evaluate(mk(1<<10, 1<<30))
	if len(fast) != 1 || fast[0].Kind() != "clone" {
		t.Fatalf("slow task with deep bag should clone, got %v", fast)
	}
	// Fast drain, almost nothing left: rejected by the heuristic.
	slow := p.Evaluate(mk(1<<30, 1<<10))
	if len(slow) != 1 || slow[0].Kind() != "reject-clone" {
		t.Fatalf("nearly drained bag should reject, got %v", slow)
	}
	// Probe failure: decline silently is not an option — the policy must
	// not clone blind.
	blind := mk(0, 0)
	blind.SampleBag = func(string) *BagTel { return nil }
	if got := p.Evaluate(blind); len(got) != 1 || got[0].Kind() != "reject-clone" {
		t.Fatalf("failed probe should reject, got %v", got)
	}
}

// TestClonePlacement is the cloning rule on a partitioned consumer: the cap
// counts live workers, the clone goes to the leaf with the most bytes left
// per live worker, a dry leaf is never a candidate, and sharing a leaf stays
// unsound on an edge that is neither Spread nor merged. Both cloning policies
// run every case: the rule is one function.
func TestClonePlacement(t *testing.T) {
	leaves := []string{"shuf.p0", "shuf.p1", "shuf.p2"}
	cases := []struct {
		name      string
		mutate    func(*TaskTel)
		remaining map[string]int64 // KiB
		heuristic bool
		want      string // the leaf the clone names; "" for no clone
	}{
		{
			name:      "finished workers leave room under the cap",
			mutate:    func(tt *TaskTel) { tt.Workers, tt.DoneWorkers = 8, 4 },
			remaining: map[string]int64{"shuf.p0": 64},
			want:      "shuf.p0",
		},
		{
			name:      "eight live workers on eight slots are at the cap",
			mutate:    func(tt *TaskTel) { tt.Workers = 8 },
			remaining: map[string]int64{"shuf.p0": 64},
		},
		{
			name:      "most bytes left per live worker wins",
			mutate:    func(tt *TaskTel) { tt.Workers, tt.Consumers["shuf.p1"] = 4, 2 },
			remaining: map[string]int64{"shuf.p0": 0, "shuf.p1": 40, "shuf.p2": 30},
			want:      "shuf.p2",
		},
		{
			name:      "placement holds under Eq. 2",
			mutate:    func(tt *TaskTel) { tt.Workers, tt.Consumers["shuf.p1"] = 4, 2 },
			remaining: map[string]int64{"shuf.p0": 0, "shuf.p1": 40, "shuf.p2": 30},
			heuristic: true,
			want:      "shuf.p2",
		},
		{
			name:      "dry and unprobed leaves are never candidates",
			remaining: map[string]int64{"shuf.p0": 0, "shuf.p1": 0},
		},
		{
			name:      "no sharing a leaf without Spread or merge",
			mutate:    func(tt *TaskTel) { tt.EdgeSpread = false },
			remaining: map[string]int64{"shuf.p0": 64},
		},
		{
			name:      "a merge procedure permits it",
			mutate:    func(tt *TaskTel) { tt.EdgeSpread, tt.HasMerge = false, true },
			remaining: map[string]int64{"shuf.p0": 64},
			want:      "shuf.p0",
		},
		{
			name:      "MaxClones bounds live workers",
			mutate:    func(tt *TaskTel) { tt.MaxClones = 3 },
			remaining: map[string]int64{"shuf.p0": 64},
		},
		{
			name:      "MaxClones does not count finished workers",
			mutate:    func(tt *TaskTel) { tt.MaxClones, tt.Workers, tt.DoneWorkers = 3, 5, 3 },
			remaining: map[string]int64{"shuf.p0": 64},
			want:      "shuf.p0",
		},
	}
	for _, tc := range cases {
		for _, speculative := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/speculative=%v", tc.name, speculative), func(t *testing.T) {
				cfg := testConfig()
				cfg.DisableHeuristic = !tc.heuristic
				snap := baseSnapshot()
				task := partitionedTask("agg", leaves...)
				if tc.mutate != nil {
					tc.mutate(task)
				}
				snap.Tasks["agg"] = task
				snap.SampleBag = probeKiB(tc.remaining)
				var p Policy = &SpeculativePolicy{Cfg: cfg}
				if !speculative {
					p = &ClonePolicy{Cfg: cfg}
					// Every leaf's worker signals; the dry one first.
					for range leaves {
						snap.Overloads = append(snap.Overloads, Overload{Task: "agg", Busy: 0.9})
					}
				}
				got := ""
				for _, a := range Arbitrate(snap, p.Evaluate(snap)) {
					if clone, ok := a.(CloneTask); ok {
						if got != "" || len(clone.Inputs) != 1 || clone.Speculative != speculative {
							t.Fatalf("want at most one clone bound to one leaf, got %+v after %q", clone, got)
						}
						got = clone.Inputs[0]
					}
				}
				if got != tc.want {
					t.Fatalf("clone placed on %q, want %q", got, tc.want)
				}
			})
		}
	}
}

// TestSpeculativePolicy: stragglers past the threshold are cloned without
// any overload signal, partitioned consumers included; fresh tasks are not.
func TestSpeculativePolicy(t *testing.T) {
	cfg := testConfig()
	cfg.DisableHeuristic = true
	p := &SpeculativePolicy{Cfg: cfg}

	snap := baseSnapshot()
	snap.Tasks["straggler"] = runningTask("straggler")
	snap.Tasks["fresh"] = runningTask("fresh")
	snap.Tasks["fresh"].StartedAt = t0.Add(-time.Second)
	snap.Tasks["partitioned"] = partitionedTask("partitioned", "shuf.p0", "shuf.p1")

	actions := p.Evaluate(snap) // in task-name order
	if len(actions) != 2 {
		t.Fatalf("want exactly two speculative clones, got %v", actions)
	}
	leaf, ok := actions[0].(CloneTask)
	if !ok || leaf.Task != "partitioned" || !leaf.Speculative || len(leaf.Inputs) != 1 {
		t.Fatalf("want speculative clone of partitioned bound to one leaf, got %+v", actions[0])
	}
	clone, ok := actions[1].(CloneTask)
	if !ok || clone.Task != "straggler" || !clone.Speculative || clone.Inputs != nil {
		t.Fatalf("want speculative clone of straggler on its declared inputs, got %+v", actions[1])
	}
}

// TestSplitPolicyZipfTrace replays a synthetic Zipf(1.1) trace with many
// medium keys piled onto one partition (no dominant key): the split
// policy must re-hash the hottest base partition, and the isolate policy
// must stay silent.
func TestSplitPolicyZipfTrace(t *testing.T) {
	cfg := testConfig()
	pmap := shuffle.BaseMap("shuf", 4)
	names := zipfKeyNames(4, 64, 24, 1)
	stats := zipfEdgeStats(pmap, names, 1.1, 20000, 7)

	snap := baseSnapshot()
	snap.Edges["shuf"] = &EdgeTel{
		Name: "shuf", PMap: pmap, Active: true, Stats: stats,
		Unsplittable: map[string]bool{},
	}

	split := (&SplitPartitionPolicy{Cfg: cfg}).Evaluate(snap)
	if len(split) != 1 {
		t.Fatalf("want one split action, got %v", split)
	}
	sp, ok := split[0].(SplitPartition)
	if !ok || sp.Edge != "shuf" || sp.Fan != cfg.SplitFan {
		t.Fatalf("unexpected split action %+v", split[0])
	}
	// The named partition must really be the hottest leaf.
	hottest, best := "", uint64(0)
	for leaf, c := range stats.Counts {
		if c > best {
			hottest, best = leaf, c
		}
	}
	if shuffle.PartitionBag("shuf", sp.Partition) != hottest {
		t.Fatalf("split names partition %d, hottest leaf is %s", sp.Partition, hottest)
	}

	// Zipf(1.1) over 64 keys: the top key holds well under half the hot
	// partition, so isolation must not trigger.
	if iso := (&IsolateKeyPolicy{Cfg: cfg}).Evaluate(snap); len(iso) != 0 {
		t.Fatalf("no dominant key, want no isolation, got %v", iso)
	}
}

// TestIsolatePolicyHeavyKey: one key dominating the stream is isolated,
// with spread fan on Spread edges and fan 1 otherwise.
func TestIsolatePolicyHeavyKey(t *testing.T) {
	cfg := testConfig()
	pmap := shuffle.BaseMap("shuf", 4)
	stats := sketch.NewEdgeStats()
	heavy := []byte("elephant")
	leaf := pmap.LeafForKey(heavy)
	stats.Counts[leaf] = 9000
	for p := 0; p < 4; p++ {
		stats.Counts[shuffle.PartitionBag("shuf", p)] += 400
	}
	stats.Heavy = []sketch.HeavyKey{{Key: heavy, Count: 8500}}

	for _, spread := range []bool{true, false} {
		snap := baseSnapshot()
		snap.Edges["shuf"] = &EdgeTel{
			Name: "shuf", PMap: pmap, Spread: spread, Active: true, Stats: stats,
			Unsplittable: map[string]bool{},
		}
		actions := (&IsolateKeyPolicy{Cfg: cfg}).Evaluate(snap)
		if len(actions) != 1 {
			t.Fatalf("spread=%v: want one isolation, got %v", spread, actions)
		}
		iso := actions[0].(IsolateKey)
		if string(iso.Key) != "elephant" {
			t.Fatalf("spread=%v: isolated key %q", spread, iso.Key)
		}
		wantFan := 1
		if spread {
			wantFan = cfg.SplitFan
		}
		if iso.Fan != wantFan {
			t.Fatalf("spread=%v: fan %d, want %d", spread, iso.Fan, wantFan)
		}
	}
}

// TestRefinementGates: inactive edges, thin edges, and already-tried
// leaves produce no refinement.
func TestRefinementGates(t *testing.T) {
	cfg := testConfig()
	pmap := shuffle.BaseMap("shuf", 4)
	stats := zipfEdgeStats(pmap, zipfKeyNames(4, 32, 12, 2), 1.3, 20000, 3)

	mk := func(mutate func(*EdgeTel)) *Snapshot {
		snap := baseSnapshot()
		e := &EdgeTel{
			Name: "shuf", PMap: pmap, Active: true, Stats: stats,
			Unsplittable: map[string]bool{},
		}
		if mutate != nil {
			mutate(e)
		}
		snap.Edges["shuf"] = e
		return snap
	}
	p := &SplitPartitionPolicy{Cfg: cfg}

	if got := p.Evaluate(mk(func(e *EdgeTel) { e.Active = false })); len(got) != 0 {
		t.Fatalf("inactive edge refined: %v", got)
	}
	if got := p.Evaluate(mk(func(e *EdgeTel) { e.Stats = nil })); len(got) != 0 {
		t.Fatalf("no fresh stats but refined: %v", got)
	}
	thin := sketch.NewEdgeStats()
	thin.Counts["shuf.p0"] = 100 // below SplitMinRecords
	if got := p.Evaluate(mk(func(e *EdgeTel) { e.Stats = thin })); len(got) != 0 {
		t.Fatalf("thin edge refined: %v", got)
	}
	// Marking every leaf unsplittable silences the policy.
	all := map[string]bool{}
	for _, l := range pmap.Leaves() {
		all[l] = true
	}
	if got := p.Evaluate(mk(func(e *EdgeTel) { e.Unsplittable = all })); len(got) != 0 {
		t.Fatalf("unsplittable leaves refined: %v", got)
	}
}

// TestArbitrateCloneSplitConflict is the required conflict case: in one
// evaluation round, ClonePolicy wants to clone the consumer of a hot edge
// while SplitPartitionPolicy wants to split the same edge. Arbitration
// must keep the split and drop the clone (the refinement is the preferred
// skew defense); clones of unrelated tasks survive.
func TestArbitrateCloneSplitConflict(t *testing.T) {
	cfg := testConfig()
	cfg.DisableHeuristic = true

	pmap := shuffle.BaseMap("shuf", 4)
	stats := zipfEdgeStats(pmap, zipfKeyNames(4, 64, 24, 1), 1.1, 20000, 7)

	snap := baseSnapshot()
	snap.Edges["shuf"] = &EdgeTel{
		Name: "shuf", PMap: pmap, Spread: true, Active: true, Stats: stats,
		Unsplittable: map[string]bool{},
	}
	snap.Tasks["agg"] = partitionedTask("agg", "shuf.p1")
	snap.Tasks["other"] = runningTask("other")
	snap.Overloads = []Overload{
		{Task: "agg", Busy: 0.95},
		{Task: "other", Busy: 0.95},
	}

	policies := []Policy{
		&ClonePolicy{Cfg: cfg},
		&SplitPartitionPolicy{Cfg: cfg},
		&IsolateKeyPolicy{Cfg: cfg},
	}
	actions := Evaluate(snap, policies)

	var haveSplit, haveOtherClone bool
	for _, a := range actions {
		switch act := a.(type) {
		case SplitPartition:
			haveSplit = true
		case CloneTask:
			if act.Task == "agg" {
				t.Fatalf("clone of the refined edge's consumer survived arbitration: %+v", act)
			}
			if act.Task == "other" {
				haveOtherClone = true
			}
		}
	}
	if !haveSplit {
		t.Fatalf("split did not survive arbitration: %v", actions)
	}
	if !haveOtherClone {
		t.Fatalf("unrelated clone was dropped: %v", actions)
	}
}

// TestArbitrateIsolationBeatsSplit: when both refinement policies fire on
// the same hot edge, the isolation wins (re-hashing cannot help when one
// key carries the partition) and exactly one refinement is emitted.
func TestArbitrateIsolationBeatsSplit(t *testing.T) {
	cfg := testConfig()
	pmap := shuffle.BaseMap("shuf", 4)
	heavy := []byte("elephant")
	leaf := pmap.LeafForKey(heavy)
	stats := sketch.NewEdgeStats()
	for p := 0; p < 4; p++ {
		stats.Counts[shuffle.PartitionBag("shuf", p)] = 500
	}
	stats.Counts[leaf] = 10000
	stats.Heavy = []sketch.HeavyKey{{Key: heavy, Count: 9000}}

	snap := baseSnapshot()
	snap.Edges["shuf"] = &EdgeTel{
		Name: "shuf", PMap: pmap, Active: true, Stats: stats,
		Unsplittable: map[string]bool{},
	}
	actions := Evaluate(snap, []Policy{
		&SplitPartitionPolicy{Cfg: cfg},
		&IsolateKeyPolicy{Cfg: cfg},
	})
	if len(actions) != 1 {
		t.Fatalf("want exactly one refinement, got %v", actions)
	}
	if _, ok := actions[0].(IsolateKey); !ok {
		t.Fatalf("isolation should beat split, got %+v", actions[0])
	}
}

// TestArbitrateCloneBudget: clones beyond the free-slot budget become
// rejections, and duplicate proposals for one task collapse.
func TestArbitrateCloneBudget(t *testing.T) {
	snap := baseSnapshot()
	snap.FreeSlots = 1
	for _, n := range []string{"a", "b"} {
		snap.Tasks[n] = runningTask(n)
	}
	proposed := []Action{
		CloneTask{Task: "a"},
		CloneTask{Task: "a"}, // duplicate collapses
		CloneTask{Task: "b"}, // over budget: becomes a rejection
	}
	out := Arbitrate(snap, proposed)
	var clones, rejects int
	for _, a := range out {
		switch a.(type) {
		case CloneTask:
			clones++
		case RejectClone:
			rejects++
		}
	}
	if clones != 1 || rejects != 1 {
		t.Fatalf("want 1 clone + 1 reject, got %v", out)
	}
}

// TestEvaluateTraceConvergence replays a multi-round telemetry trace of a
// skewed shuffle through the full policy chain: round after round the
// edge's map is refined (as the master would apply it), and the policies
// go quiet once the imbalance is resolved — the control loop converges
// instead of splitting forever.
func TestEvaluateTraceConvergence(t *testing.T) {
	cfg := testConfig()
	policies := []Policy{
		&SplitPartitionPolicy{Cfg: cfg},
		&IsolateKeyPolicy{Cfg: cfg},
	}
	pmap := shuffle.BaseMap("shuf", 4)
	names := zipfKeyNames(4, 64, 24, 1)
	unsplittable := map[string]bool{}

	refinements := 0
	for round := 0; round < 12; round++ {
		// Fresh stats each round, routed through the *current* map, as
		// producers adopting the refined map would report them.
		stats := zipfEdgeStats(pmap, names, 1.2, 20000, int64(round))
		snap := baseSnapshot()
		snap.Version = uint64(round + 1)
		snap.Edges["shuf"] = &EdgeTel{
			Name: "shuf", PMap: pmap, Spread: true, Active: true, Stats: stats,
			Unsplittable: unsplittable,
		}
		actions := Evaluate(snap, policies)
		if len(actions) == 0 {
			t.Logf("converged after %d refinements (%d rounds)", refinements, round)
			if refinements == 0 {
				t.Fatal("trace never refined the hot edge")
			}
			return
		}
		for _, a := range actions {
			next := pmap.Clone()
			switch act := a.(type) {
			case SplitPartition:
				if next.Splits == nil {
					next.Splits = map[int]int{}
				}
				next.Splits[act.Partition] = act.Fan
				refinements++
			case IsolateKey:
				next.Isolated = append(next.Isolated, shuffle.Isolation{
					Hash: shuffle.KeyHash(act.Key), Fan: act.Fan,
				})
				refinements++
			case MarkUnsplittable:
				unsplittable[act.Leaf] = true
			default:
				t.Fatalf("unexpected action %+v in refinement trace", a)
			}
			next.Version++
			pmap = next
		}
	}
	t.Fatalf("policies never went quiet over the trace (%d refinements, map %+v)", refinements, pmap)
}

// TestArbitrateLeaseBudget: in a multi-job cluster the clone budget is
// the minimum of physical free slots and the job's fair-share lease, so
// a skewed job's mitigations cannot starve a neighboring job even when
// idle slots exist (they are the neighbor's share).
func TestArbitrateLeaseBudget(t *testing.T) {
	snap := baseSnapshot()
	snap.Job = "skewed"
	snap.FreeSlots = 3
	snap.LeaseCapped = true
	snap.LeaseSlots = 1
	for _, n := range []string{"a", "b"} {
		snap.Tasks[n] = runningTask(n)
	}
	out := Arbitrate(snap, []Action{CloneTask{Task: "a"}, CloneTask{Task: "b"}})
	var clones, rejects int
	for _, a := range out {
		switch a.(type) {
		case CloneTask:
			clones++
		case RejectClone:
			rejects++
		}
	}
	if clones != 1 || rejects != 1 {
		t.Fatalf("lease-capped arbitration: want 1 clone + 1 reject, got %v", out)
	}

	// Without the lease cap the same proposals both fit the free slots.
	snap.LeaseCapped = false
	out = Arbitrate(snap, []Action{CloneTask{Task: "a"}, CloneTask{Task: "b"}})
	clones = 0
	for _, a := range out {
		if _, ok := a.(CloneTask); ok {
			clones++
		}
	}
	if clones != 2 {
		t.Fatalf("uncapped arbitration: want 2 clones, got %v", out)
	}
}
