package shuffle

import (
	"testing"

	"repro/internal/sketch"
)

func TestWarmStartTransplantsRefinements(t *testing.T) {
	prev := BaseMap("old", 4)
	prev.Splits = map[int]int{2: 4} // routes nothing: must not be copied
	prev.Isolated = []Isolation{{Hash: KeyHash(key(7)), Fan: 2}}
	prev.Version = 3

	seed := WarmStart(prev, nil, "new", 4, 0.5, 2, true)
	if seed == nil {
		t.Fatal("learned map produced no seed")
	}
	if seed.Bag != "new" {
		t.Fatalf("seed bag = %q, want new", seed.Bag)
	}
	if seed.Version < 2 {
		t.Fatalf("seed version %d would lose to the locally derived base map", seed.Version)
	}
	if seed.Splits != nil {
		t.Fatalf("splits transplanted: %v", seed.Splits)
	}
	if !seed.IsIsolated(KeyHash(key(7))) || len(seed.Isolated) != 1 || seed.Isolated[0].Fan != 2 {
		t.Fatalf("isolation not transplanted: %+v", seed.Isolated)
	}
	if got, want := len(seed.Leaves()), 4+2; got != want {
		t.Fatalf("seed has %d leaves, want the 4 base partitions and 2 isolation bags", got)
	}
	// The predecessor must be untouched (Clone semantics).
	if prev.Bag != "old" || prev.Version != 3 {
		t.Fatalf("predecessor mutated: %+v", prev)
	}
}

func TestWarmStartSeedsHeavyKeysFromStats(t *testing.T) {
	stats := sketch.NewEdgeStats()
	stats.Counts = map[string]uint64{"x.p0": 6000, "x.p1": 2000, "x.p2": 1000, "x.p3": 1000}
	stats.Heavy = []sketch.HeavyKey{
		{Key: key(1), Count: 4000}, // 40% of 10000 ≥ 0.5 × mean(2500)
		{Key: key(2), Count: 500},  // below the threshold
	}

	seed := WarmStart(nil, stats, "new", 4, 0.5, 3, true)
	if seed == nil {
		t.Fatal("heavy stats produced no seed")
	}
	if !seed.IsIsolated(KeyHash(key(1))) {
		t.Fatal("dominant key not pre-isolated")
	}
	if seed.IsIsolated(KeyHash(key(2))) {
		t.Fatal("light key wrongly isolated")
	}
	if len(seed.Isolated) != 1 || seed.Isolated[0].Fan != 3 {
		t.Fatalf("isolations = %+v, want one with fan 3", seed.Isolated)
	}
	// Without Spread the key must get a single dedicated bag.
	noSpread := WarmStart(nil, stats, "new", 4, 0.5, 3, false)
	if noSpread.Isolated[0].Fan != 1 {
		t.Fatalf("no-spread fan = %d, want 1", noSpread.Isolated[0].Fan)
	}
}

func TestWarmStartNothingLearned(t *testing.T) {
	if seed := WarmStart(BaseMap("old", 4), sketch.NewEdgeStats(), "new", 4, 0.5, 2, true); seed != nil {
		t.Fatalf("unrefined predecessor and empty stats must not seed, got %+v", seed)
	}
	if seed := WarmStart(nil, nil, "new", 4, 0.5, 2, true); seed != nil {
		t.Fatalf("no memory must not seed, got %+v", seed)
	}
	// A predecessor with a different base cannot be transplanted.
	prev := BaseMap("old", 8)
	prev.Isolated = []Isolation{{Hash: KeyHash(key(7)), Fan: 2}}
	prev.Version = 2
	if seed := WarmStart(prev, nil, "new", 4, 0.5, 2, true); seed != nil {
		t.Fatalf("mismatched base must not transplant isolations, got %+v", seed)
	}
	// Splits alone are nothing learned: they route nothing.
	prev = BaseMap("old", 4)
	prev.Splits = map[int]int{1: 2}
	prev.Version = 2
	if seed := WarmStart(prev, nil, "new", 4, 0.5, 2, true); seed != nil {
		t.Fatalf("a predecessor with splits only must not seed, got %+v", seed)
	}
}
