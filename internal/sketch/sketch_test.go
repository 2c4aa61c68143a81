package sketch

import (
	"encoding/binary"
	"testing"

	"repro/internal/workload"
)

func k64(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

// TestCountMinZipfGuarantee checks the count-min error bound under the
// skewed key distributions the shuffle subsystem detects: for every key of
// a Zipf(s=1.2) stream, truth ≤ estimate ≤ truth + ε·N with ε = 2/width.
// (The ε·N bound holds per key with probability 1 − 2^−depth; with a
// heavy-tailed stream the excess in each cell is far below the Markov
// bound, so the fixed-seed stream satisfies it for every key.)
func TestCountMinZipfGuarantee(t *testing.T) {
	const (
		keys  = 1000
		n     = 200000
		width = 1024
		depth = 4
	)
	sampler := workload.NewSampler(workload.RegionWeights(keys, 1.2), 7)
	cm := NewCountMin(width, depth)
	truth := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		key := uint64(sampler.Next())
		// Add returns what Estimate would say next.
		if got, est := cm.Add(k64(key), 1), cm.Estimate(k64(key)); got != est {
			t.Fatalf("Add(key %d) returned %d, Estimate reads %d", key, got, est)
		}
		truth[key]++
	}
	slack := uint64(2 * n / width) // ε·N
	for key, want := range truth {
		est := cm.Estimate(k64(key))
		if est < want {
			t.Fatalf("key %d undercounted: est %d < truth %d", key, est, want)
		}
		if est > want+slack {
			t.Errorf("key %d: est %d exceeds truth %d + ε·N %d", key, est, want, slack)
		}
	}
	// The heavy hitters the master isolates must be near-exact: the top
	// key holds ~30%% of the stream, so its CM estimate is dominated by
	// truth, not collision noise.
	top := cm.Estimate(k64(0))
	if float64(top) > float64(truth[0])*1.01 {
		t.Errorf("top key estimate %d drifted from truth %d", top, truth[0])
	}
}

// TestEdgeStatsMergeMatchesGlobal: merging per-producer stats must equal a
// single producer having observed the whole stream — counts exactly,
// count-min cell-wise, heavy-hitter counts key-wise. This is what makes
// storage-side merging of concurrent producers' pushes sound.
func TestEdgeStatsMergeMatchesGlobal(t *testing.T) {
	const producers = 4
	sampler := workload.NewSampler(workload.RegionWeights(64, 1.3), 11)
	global := NewEdgeStats()
	parts := make([]*EdgeStats, producers)
	for i := range parts {
		parts[i] = NewEdgeStats()
	}
	leafFor := func(key uint64) string {
		if key%3 == 0 {
			return "shuf.p0"
		}
		return "shuf.p1"
	}
	for i := 0; i < 40000; i++ {
		key := uint64(sampler.Next())
		leaf := leafFor(key)
		global.Counts[leaf]++
		global.CM.Add(k64(key), 1)
		p := parts[i%producers]
		p.Counts[leaf]++
		p.CM.Add(k64(key), 1)
	}
	for i := range parts {
		parts[i].Heavy = []HeavyKey{{Key: k64(0), Count: parts[i].CM.Estimate(k64(0))}}
	}

	merged := NewEdgeStats()
	for _, p := range parts {
		// Round-trip through the wire encoding, as storage nodes do.
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeEdgeStats(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(decoded); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Total() != global.Total() {
		t.Fatalf("merged total %d != global %d", merged.Total(), global.Total())
	}
	for leaf, want := range global.Counts {
		if merged.Counts[leaf] != want {
			t.Fatalf("leaf %s: merged %d != global %d", leaf, merged.Counts[leaf], want)
		}
	}
	for i := uint64(0); i < 64; i++ {
		if merged.CM.Estimate(k64(i)) != global.CM.Estimate(k64(i)) {
			t.Fatalf("key %d: merged CM estimate %d != global %d",
				i, merged.CM.Estimate(k64(i)), global.CM.Estimate(k64(i)))
		}
	}
	if len(merged.Heavy) != 1 || string(merged.Heavy[0].Key) != string(k64(0)) {
		t.Fatalf("heavy list %v, want single entry for key 0", merged.Heavy)
	}
	var sum uint64
	for _, p := range parts {
		sum += p.Heavy[0].Count
	}
	if merged.Heavy[0].Count != sum {
		t.Fatalf("heavy count %d != sum of partials %d", merged.Heavy[0].Count, sum)
	}
}

// TestEdgeStatsHeavyCap: the merged heavy list keeps the top keys only.
func TestEdgeStatsHeavyCap(t *testing.T) {
	a, b := NewEdgeStats(), NewEdgeStats()
	for i := uint64(0); i < MaxHeavyKeys; i++ {
		a.Heavy = append(a.Heavy, HeavyKey{Key: k64(i), Count: 10 + i})
		b.Heavy = append(b.Heavy, HeavyKey{Key: k64(1000 + i), Count: 1})
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.Heavy) != MaxHeavyKeys {
		t.Fatalf("heavy list grew to %d, cap is %d", len(a.Heavy), MaxHeavyKeys)
	}
	for _, h := range a.Heavy {
		if h.Count == 1 {
			t.Fatalf("low-count key %v survived the cap over heavier keys", h.Key)
		}
	}
}

func TestEdgeStatsDecodeErrors(t *testing.T) {
	if _, err := DecodeEdgeStats([]byte("{")); err == nil {
		t.Fatal("truncated stats must error")
	}
	if _, err := DecodeEdgeStats([]byte(`{"cm":"AQ=="}`)); err == nil {
		t.Fatal("corrupt embedded sketch must error")
	}
}

// TestTopKeysExtraction: the first-class heavy-hitter helper honors the
// fraction threshold, the cap, and descending order.
func TestTopKeysExtraction(t *testing.T) {
	b := NewStatsBuilder()
	b.Add(k64(1), 500) // 50%
	b.Add(k64(2), 300) // 30%
	b.Add(k64(3), 150) // 15%
	b.Add(k64(4), 50)  // 5%
	st := b.Stats()
	if st.Total() != 1000 {
		t.Fatalf("builder total %d, want 1000", st.Total())
	}

	top := st.TopKeys(10, 0.10)
	if len(top) != 3 {
		t.Fatalf("TopKeys(10, 0.10) returned %d keys, want 3 (≥10%% each)", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("TopKeys not sorted descending: %v", top)
		}
	}
	if string(top[0].Key) != string(k64(1)) || top[0].Count != 500 {
		t.Fatalf("top key wrong: %+v", top[0])
	}

	if got := st.TopKeys(2, 0.10); len(got) != 2 {
		t.Fatalf("cap ignored: %d keys, want 2", len(got))
	}
	if got := st.TopKeys(10, 0.60); len(got) != 0 {
		t.Fatalf("threshold ignored: %d keys, want 0", len(got))
	}
	empty := NewEdgeStats()
	if got := empty.TopKeys(10, 0); got != nil {
		t.Fatalf("empty stats returned %v", got)
	}
}

// TestStatsBuilderSketchAgrees: the builder's count-min sketch estimates
// match the exact counts it was fed (one-sided error: never under).
func TestStatsBuilderSketchAgrees(t *testing.T) {
	b := NewStatsBuilder()
	for i := uint64(0); i < 100; i++ {
		b.Add(k64(i), i+1)
	}
	st := b.Stats()
	for i := uint64(0); i < 100; i++ {
		est := st.CM.Estimate(k64(i))
		if est < i+1 {
			t.Fatalf("key %d: estimate %d under true count %d", i, est, i+1)
		}
	}
	if len(st.Heavy) != MaxHeavyKeys {
		t.Fatalf("heavy candidates %d, want cap %d", len(st.Heavy), MaxHeavyKeys)
	}
	if st.Heavy[0].Count != 100 {
		t.Fatalf("heaviest candidate count %d, want 100", st.Heavy[0].Count)
	}
}
