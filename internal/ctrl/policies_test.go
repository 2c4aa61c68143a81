package ctrl

import (
	"fmt"
	"testing"
	"time"
)

// The policy tests run entirely against synthetic telemetry: no cluster,
// no storage, no goroutines. A trace builds Snapshots by hand and feeds
// them to policies, asserting on the emitted Actions.

var t0 = time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)

func testPolicy() *ClonePolicy { return &ClonePolicy{CloneInterval: 2 * time.Second} }

// baseSnapshot probes every bag as deep: every input has work left.
func baseSnapshot() *Snapshot {
	return &Snapshot{
		Version:    1,
		Now:        t0,
		FreeSlots:  4,
		TotalSlots: 8,
		Tasks:      map[string]*TaskTel{},
		Edges:      map[string]*EdgeTel{},
		SampleBag: func(string) *BagTel {
			return &BagTel{RemainingBytes: 1 << 30}
		},
	}
}

func runningTask(name string) *TaskTel {
	return &TaskTel{
		Name:      name,
		Scheduled: true,
		Workers:   1,
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
		return &BagTel{RemainingBytes: kib << 10}
	}
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
			// A task that read 1 TiB in its first minute and has 1 KiB left
			// still clones: the drain rate gates nothing.
			name: "fast-draining task with input left clones",
			mutate: func(s *Snapshot) {
				s.Tasks["map"].StartedAt = t0.Add(-time.Minute)
				s.SampleBag = func(string) *BagTel { return &BagTel{ReadBytes: 1 << 40, RemainingBytes: 1 << 10} }
			},
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "clone",
		},
		{
			name:     "dry input rejects",
			mutate:   func(s *Snapshot) { s.SampleBag = func(string) *BagTel { return &BagTel{} } },
			overload: Overload{Task: "map", Busy: 0.9},
			want:     "reject-clone",
		},
		{
			// The policy must not clone blind.
			name:     "failed probe rejects",
			mutate:   func(s *Snapshot) { s.SampleBag = func(string) *BagTel { return nil } },
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
			actions := testPolicy().Evaluate(snap)
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

// TestClonePlacement is the cloning rule on a partitioned consumer: the cap
// counts live workers, the first clone goes to the leaf with the most bytes left
// per live worker, a dry leaf is never a candidate, and sharing a leaf stays
// unsound on an edge that is neither Spread nor merged.
//
// Every case also runs with no overload signal (the speculative=true arm,
// named for the straggler timer that used to clone such a task): only a
// signal asks for a clone, so that arm places nothing.
func TestClonePlacement(t *testing.T) {
	leaves := []string{"shuf.p0", "shuf.p1", "shuf.p2"}
	cases := []struct {
		name      string
		mutate    func(*TaskTel)
		remaining map[string]int64 // KiB
		want      string           // the leaf the clone names; "" for no clone
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
				snap := baseSnapshot()
				task := partitionedTask("agg", leaves...)
				if tc.mutate != nil {
					tc.mutate(task)
				}
				snap.Tasks["agg"] = task
				snap.SampleBag = probeKiB(tc.remaining)
				want := ""
				if !speculative {
					want = tc.want
					// Every leaf's worker signals; the dry one first.
					for range leaves {
						snap.Overloads = append(snap.Overloads, Overload{Task: "agg", Busy: 0.9})
					}
				}
				got := ""
				for _, a := range Arbitrate(snap, testPolicy().Evaluate(snap)) {
					if clone, ok := a.(CloneTask); ok {
						if len(clone.Inputs) != 1 {
							t.Fatalf("want a clone bound to one leaf, got %+v", clone)
						}
						if got == "" {
							got = clone.Inputs[0]
						}
					}
				}
				if got != want {
					t.Fatalf("first clone placed on %q, want %q", got, want)
				}
			})
		}
	}
}

// TestClonePerSignal: each overload signal is one clone request. k signals
// of one Spread consumer with k leaves yield min(k, cap, budget) clones, and
// each goes to the leaf with the most bytes left per live worker, counting
// the clones proposed before it in the same pass. Signals over the budget
// are rejected; signals over the cap are filtered.
func TestClonePerSignal(t *testing.T) {
	leaves := []string{"shuf.p0", "shuf.p1", "shuf.p2", "shuf.p3"}
	// Per live worker: p0 900 → 450 → 300, p1 500 → 250, p2 320, p3 100.
	remaining := map[string]int64{"shuf.p0": 900, "shuf.p1": 500, "shuf.p2": 320, "shuf.p3": 100}
	cases := []struct {
		name      string
		maxClones int
		free      int
		lease     int // 0: no lease cap
		want      []string
		rejects   int
	}{
		{name: "every signal clones", free: 4, want: []string{"shuf.p0", "shuf.p1", "shuf.p0", "shuf.p2"}},
		{name: "the cap counts this pass's clones", maxClones: 6, free: 4, want: []string{"shuf.p0", "shuf.p1"}},
		{name: "free slots bound the pass", free: 3, want: []string{"shuf.p0", "shuf.p1", "shuf.p0"}, rejects: 1},
		{name: "the lease bounds the pass", free: 4, lease: 1, want: []string{"shuf.p0"}, rejects: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := baseSnapshot()
			snap.FreeSlots = tc.free
			snap.LeaseCapped, snap.LeaseSlots = tc.lease > 0, tc.lease
			task := partitionedTask("agg", leaves...)
			task.MaxClones = tc.maxClones
			snap.Tasks["agg"] = task
			snap.SampleBag = probeKiB(remaining)
			for range leaves {
				snap.Overloads = append(snap.Overloads, Overload{Task: "agg", Busy: 0.9})
			}
			var got []string
			rejects := 0
			for _, a := range Arbitrate(snap, testPolicy().Evaluate(snap)) {
				switch act := a.(type) {
				case CloneTask:
					got = append(got, act.Inputs...)
				case RejectClone:
					rejects++
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) || rejects != tc.rejects {
				t.Fatalf("clones on %v with %d rejects, want %v with %d", got, rejects, tc.want, tc.rejects)
			}
			if task.Workers != len(leaves) || task.Consumers["shuf.p0"] != 1 {
				t.Fatalf("Evaluate changed the snapshot's task: %+v", task)
			}
		})
	}
}

// TestForceClones: the forced signals stand for every live worker of every
// scheduled, unfinished task, and the ClonePolicy behind them still holds
// NoClone and the worker cap.
func TestForceClones(t *testing.T) {
	snap := baseSnapshot()
	snap.FreeSlots = 8
	live := runningTask("live") // three workers handed out, one done: two signal
	live.Workers, live.DoneWorkers = 3, 1
	pending := runningTask("pending")
	pending.Scheduled = false
	finished := runningTask("finished")
	finished.Finished = true
	pinned := runningTask("pinned")
	pinned.NoClone = true
	capped := runningTask("capped")
	capped.Workers, capped.MaxClones = 2, 2
	for _, task := range []*TaskTel{live, pending, finished, pinned, capped} {
		snap.Tasks[task.Name] = task
	}
	var got []string
	for _, a := range (&ForceClones{}).Evaluate(snap) {
		got = append(got, a.(CloneTask).Task)
	}
	if fmt.Sprint(got) != "[live live]" {
		t.Fatalf("forced clones of %v, want [live live]", got)
	}
	if len(snap.Overloads) != 0 {
		t.Fatalf("Evaluate changed the snapshot's signals: %+v", snap.Overloads)
	}
}

// TestArbitrateCloneBudget: clones beyond the free-slot budget become
// rejections, a second clone of one task included: nothing collapses, so
// every proposal yields one action.
func TestArbitrateCloneBudget(t *testing.T) {
	snap := baseSnapshot()
	snap.FreeSlots = 1
	snap.Tasks["a"] = runningTask("a")
	proposed := []Action{
		CloneTask{Task: "a"},
		CloneTask{Task: "a"}, // over budget: becomes a rejection
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
// partitioned consumer with one hot leaf through ClonePolicy and Arbitrate:
// every round each live worker signals overload and the surviving clone is
// applied as the master would apply it. Every clone binds to the hot leaf,
// and the policy goes quiet once the live workers fill the cluster's slots —
// the control loop converges instead of cloning forever.
func TestEvaluateTraceConvergence(t *testing.T) {
	p := testPolicy()
	task := partitionedTask("agg", "shuf.p0", "shuf.p1", "shuf.p2", "shuf.p3")
	remaining := map[string]int64{"shuf.p0": 4096, "shuf.p1": 64, "shuf.p2": 64, "shuf.p3": 64}

	now, clones := t0, 0
	for round := 0; round < 12; round++ {
		snap := baseSnapshot()
		snap.Version, snap.Now = uint64(round+1), now
		snap.FreeSlots = snap.TotalSlots - (task.Workers - task.DoneWorkers)
		snap.Tasks["agg"] = task
		snap.SampleBag = probeKiB(remaining)
		for range task.Workers {
			snap.Overloads = append(snap.Overloads, Overload{Task: "agg", Busy: 0.9})
		}
		actions := Arbitrate(snap, p.Evaluate(snap))
		if len(actions) == 0 {
			if live := task.Workers - task.DoneWorkers; live != snap.TotalSlots || clones == 0 {
				t.Fatalf("went quiet after %d clones with %d live workers on %d slots", clones, live, snap.TotalSlots)
			}
			t.Logf("converged after %d clones (%d rounds)", clones, round)
			return
		}
		for _, a := range actions {
			clone, ok := a.(CloneTask)
			if !ok || len(clone.Inputs) != 1 || clone.Inputs[0] != "shuf.p0" {
				t.Fatalf("round %d: want clones bound to the hot leaf, got %+v", round, a)
			}
			task.Workers++
			task.Consumers[clone.Inputs[0]]++
			task.LastClone = now
			clones++
		}
		now = now.Add(p.CloneInterval)
	}
	t.Fatalf("policies never went quiet over the trace (%d clones)", clones)
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
