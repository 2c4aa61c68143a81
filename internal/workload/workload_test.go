package workload

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// TestImbalanceMatchesPaper: with 64 regions and w_i ∝ (i+1)^{-s}, the
// max/min imbalance must reproduce the paper's reported factors
// (1×, 2.3×, 8×, 28×, 64× for s = 0, 0.2, 0.5, 0.8, 1).
func TestImbalanceMatchesPaper(t *testing.T) {
	want := map[float64]float64{0: 1, 0.2: 2.3, 0.5: 8, 0.8: 28, 1.0: 64}
	for s, imb := range want {
		w := RegionWeights(DefaultRegions, s)
		got := Imbalance(w)
		if math.Abs(got-imb)/imb > 0.02 {
			t.Errorf("s=%.1f: imbalance %.2f, paper %.1f", s, got, imb)
		}
	}
}

// TestLargestFractionAndAmdahl: at s=1 the largest region (the first:
// weights fall with rank) is ≈20% (paper: 19.6%) and the 32-machine Amdahl
// best-case slowdown is ≈7.1×.
func TestLargestFractionAndAmdahl(t *testing.T) {
	f := RegionWeights(DefaultRegions, 1.0)[0]
	if f < 0.18 || f > 0.23 {
		t.Errorf("largest fraction %.3f, paper 0.196", f)
	}
	// Using the paper's own 0.196 must give the paper's 7.1×.
	slow := AmdahlBestSlowdown(0.196, 32)
	if math.Abs(slow-7.1) > 0.2 {
		t.Errorf("Amdahl slowdown %.2f, paper 7.1", slow)
	}
}

func TestWeightsNormalizedQuick(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%100) + 1
		s := float64(sRaw%101) / 100
		w := RegionWeights(n, s)
		var sum float64
		for i, x := range w {
			if x <= 0 {
				return false
			}
			if i > 0 && x > w[i-1]+1e-12 {
				return false // must be non-increasing
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerFollowsWeights(t *testing.T) {
	weights := []float64{0.7, 0.2, 0.1}
	s := NewSampler(weights, 42)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Next()]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.02 {
			t.Errorf("index %d: frequency %.3f, want %.3f", i, got, w)
		}
	}
}

func TestGeolocateInvertsGeneration(t *testing.T) {
	gen := ClickLogGen{S: 0.8, Seed: 7, UniquePerRegion: 1000}
	ips := gen.Generate(10000)
	for _, ip := range ips {
		r := Geolocate(ip)
		if r < 0 || r >= DefaultRegions {
			t.Fatalf("ip %#x maps to region %d", ip, r)
		}
	}
	counts := CountPerRegion(ips, DefaultRegions)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("region counts sum to %d", total)
	}
	// Skewed generation: region 0 must be the heaviest.
	max := counts[0]
	for _, c := range counts[1:] {
		if c > max {
			t.Fatalf("region 0 (%d) is not the heaviest (%d)", counts[0], c)
		}
	}
}

func TestDistinctPerRegionBounded(t *testing.T) {
	gen := ClickLogGen{S: 0, Seed: 1, UniquePerRegion: 50}
	ips := gen.Generate(20000)
	distinct := DistinctPerRegion(ips, DefaultRegions)
	for r, d := range distinct {
		if d > 50 {
			t.Fatalf("region %d has %d distinct IPs, cap 50", r, d)
		}
	}
}

// TestClickLogDrift checks the drifted distribution: with DriftEvery set,
// the hot region migrates — segment k of the log is hottest at region
// (0 + k) — while the undrifted generator keeps region 0 hottest
// throughout. It also pins Iter to Generate.
func TestClickLogDrift(t *testing.T) {
	const per = 8000
	gen := ClickLogGen{S: 1.3, Regions: 16, Seed: 7, DriftEvery: per}
	ips := gen.Generate(4 * per)

	hottest := func(seg []uint32) int {
		counts := CountPerRegion(seg, 16)
		best := 0
		for r, c := range counts {
			if c > counts[best] {
				best = r
			}
		}
		return best
	}
	for k := 0; k < 4; k++ {
		seg := ips[k*per : (k+1)*per]
		if got := hottest(seg); got != k {
			t.Fatalf("segment %d: hottest region %d, want %d (hot region must migrate)", k, got, k)
		}
		// Zipf(1.3) concentrates ≈38%% of a 16-region stream on rank 0;
		// require a clear majority signal, not just argmax noise.
		counts := CountPerRegion(seg, 16)
		if frac := float64(counts[k]) / per; frac < 0.25 {
			t.Fatalf("segment %d: hot region holds %.2f of records, want ≥0.25", k, frac)
		}
	}

	// Stationary control: same config without drift stays hot at region 0.
	still := ClickLogGen{S: 1.3, Regions: 16, Seed: 7}
	sips := still.Generate(4 * per)
	for k := 0; k < 4; k++ {
		if got := hottest(sips[k*per : (k+1)*per]); got != 0 {
			t.Fatalf("undrifted segment %d: hottest region %d, want 0", k, got)
		}
	}

	// Iter must reproduce Generate element-wise.
	it := gen.Iter()
	for i, want := range ips[:1000] {
		if got := it.Next(); got != want {
			t.Fatalf("Iter diverges from Generate at %d: %d != %d", i, got, want)
		}
	}
}

func TestClickLogDeterministic(t *testing.T) {
	g1 := ClickLogGen{S: 0.5, Seed: 99}
	g2 := ClickLogGen{S: 0.5, Seed: 99}
	a, b := g1.Generate(1000), g2.Generate(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestRegionNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < DefaultRegions; i++ {
		name := RegionName(i)
		if name == "" || seen[name] {
			t.Fatalf("region name %d: %q duplicate or empty", i, name)
		}
		seen[name] = true
	}
	if RegionName(1000) == "" {
		t.Fatal("out-of-range region must still name")
	}
}

func TestRelationGenAndJoinCount(t *testing.T) {
	rg := RelationGen{Keys: 10, S: 0, Seed: 5}
	r := rg.Generate(100)
	sg := RelationGen{Keys: 10, S: 1, Seed: 6}
	s := sg.Generate(1000)
	// The ground truth by brute force: every matching pair, sorted by
	// (Key, R, S).
	var brute []Match
	for _, a := range r {
		for _, b := range s {
			if a.Key == b.Key {
				brute = append(brute, Match{Key: a.Key, R: a.Payload, S: b.Payload})
			}
		}
	}
	if len(brute) == 0 {
		t.Fatal("degenerate test: no matches")
	}
	slices.SortFunc(brute, func(x, y Match) int {
		return cmp.Or(cmp.Compare(x.Key, y.Key), cmp.Compare(x.R, y.R), cmp.Compare(x.S, y.S))
	})
	matches := JoinMatches(r, s)
	if !slices.Equal(matches, brute) {
		t.Fatalf("JoinMatches: %d matches, brute force %d, or they differ", len(matches), len(brute))
	}
}

func TestRMATProperties(t *testing.T) {
	gen := RMATGen{Scale: 10, EdgeFactor: 8, Seed: 3}
	edges := gen.Generate()
	if int64(len(edges)) != gen.NumEdges() {
		t.Fatalf("edges %d, want %d", len(edges), gen.NumEdges())
	}
	n := gen.NumVertices()
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			t.Fatalf("edge %v out of range", e)
		}
	}
	deg := OutDegrees(edges, n)
	var sum int64
	for _, d := range deg {
		sum += d
	}
	if sum != gen.NumEdges() {
		t.Fatalf("degree sum %d", sum)
	}
	// Power-law: the max degree must far exceed the mean (skew exists).
	mean := float64(sum) / float64(n)
	if float64(MaxDegree(deg)) < 5*mean {
		t.Errorf("max degree %d vs mean %.1f: not skewed enough for R-MAT",
			MaxDegree(deg), mean)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := (&RMATGen{Scale: 8, EdgeFactor: 4, Seed: 11}).Generate()
	b := (&RMATGen{Scale: 8, EdgeFactor: 4, Seed: 11}).Generate()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("R-MAT generation not deterministic")
		}
	}
}

func TestPartitionWeightsViaSampler(t *testing.T) {
	// Sampler over region weights must hit every region eventually at s=0.
	s := NewSampler(RegionWeights(16, 0), 1)
	seen := make([]bool, 16)
	for i := 0; i < 10000; i++ {
		seen[s.Next()] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("region %d never sampled", i)
		}
	}
}
