// Package workload generates the synthetic datasets used throughout the
// paper's evaluation (§5): skewed click logs for ClickLog, key-skewed
// relations for HashJoin, and R-MAT power-law graphs for PageRank.
//
// Skew model. The paper introduces skew with "a zipf distribution with
// parameter s (0 ≤ s ≤ 1)" and reports the imbalance between the largest
// and smallest region as 1×, 2.3×, 8×, 28×, and 64× for s = 0, 0.2, 0.5,
// 0.8, and 1. With R = 64 regions weighted w_i ∝ (i+1)^{-s}, the
// max/min ratio is exactly 64^s = {1, 2.30, 8, 27.9, 64} — matching the
// paper's numbers — and the largest region's share at s = 1 is
// 1/H(64) ≈ 21% (paper: 19.6%).
package workload

import (
	"math"
	"math/rand"
	"sort"
)

// DefaultRegions is the region count that reproduces the paper's skew
// imbalance figures.
const DefaultRegions = 64

// PaperSkews are the skew parameters evaluated in the paper.
var PaperSkews = []float64{0, 0.2, 0.5, 0.8, 1.0}

// RegionWeights returns normalized zipf(s) weights for n regions:
// w_i ∝ (i+1)^{-s}.
func RegionWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Imbalance returns the max/min ratio of a weight vector.
func Imbalance(w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	min, max := w[0], w[0]
	for _, x := range w[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max / min
}

// AmdahlBestSlowdown computes the paper's best-case slowdown bound for a
// cluster of n machines when the largest region (fraction f of the input)
// cannot be split: speedup ≤ 1/(f + (1-f)/n), so slowdown ≥ n/speedup.
// For s = 1 on 32 machines the paper derives 7.1×.
func AmdahlBestSlowdown(f float64, machines int) float64 {
	speedup := 1.0 / (f + (1.0-f)/float64(machines))
	return float64(machines) / speedup
}

// Sampler draws indices according to a weight vector using inverse-CDF
// sampling (math/rand's Zipf requires s > 1, so it cannot express the
// paper's 0 ≤ s ≤ 1 range).
type Sampler struct {
	cdf []float64
	rng *rand.Rand
}

// NewSampler builds a sampler over weights (need not be normalized).
func NewSampler(weights []float64, seed int64) *Sampler {
	cdf := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		sum += w
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Sampler{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one index.
func (s *Sampler) Next() int {
	u := s.rng.Float64()
	return sort.SearchFloat64s(s.cdf, u)
}

// ---- ClickLog ----

// RegionBits is the number of high bits of an IP that identify its region
// (64 regions).
const RegionBits = 6

// Geolocate maps an IP to its region index — the deterministic stand-in
// for the paper's geolocation function ("we simulate the geolocation
// function to avoid external API calls").
func Geolocate(ip uint32) int {
	return int(ip >> (32 - RegionBits))
}

// RegionName returns the bag-name suffix for a region index.
var regionNames = []string{
	"usa", "china", "india", "brazil", "uk", "japan", "germany", "france",
	"italy", "canada", "korea", "russia", "spain", "mexico", "indonesia",
	"turkey", "nl", "saudi", "swiss", "poland", "taiwan", "belgium",
	"sweden", "ireland", "austria", "norway", "uae", "israel", "denmark",
	"sg", "malaysia", "hk", "colombia", "philippines", "pakistan", "chile",
	"finland", "bangladesh", "egypt", "vietnam", "portugal", "czech",
	"romania", "peru", "nz", "greece", "iraq", "qatar", "algeria",
	"hungary", "kazakhstan", "kuwait", "morocco", "ecuador", "slovakia",
	"kenya", "ethiopia", "dr", "guatemala", "oman", "bulgaria", "venezuela",
	"uruguay", "croatia",
}

// RegionName returns a human-readable region name for an index.
func RegionName(i int) string {
	if i >= 0 && i < len(regionNames) {
		return regionNames[i]
	}
	return "region" + string(rune('a'+i%26))
}

// ClickLogGen generates click-log records: IPs whose region follows a
// zipf(s) distribution over 64 regions.
type ClickLogGen struct {
	// S is the zipf skew parameter (0 = uniform).
	S float64
	// Regions is the region count (default 64).
	Regions int
	// UniquePerRegion bounds the distinct IPs per region (so distinct
	// counts are interesting); 0 means unbounded.
	UniquePerRegion int
	// Seed seeds the generator.
	Seed int64
	// DriftEvery, when > 0, makes the hot region migrate over time: after
	// every DriftEvery records the zipf rank→region assignment rotates by
	// one, so the region that was hottest hands the role to its
	// neighbor. Streaming benchmarks use it to exercise *changing* skew —
	// a workload where yesterday's partition map is mostly, but not
	// entirely, right for today. 0 disables drift (stationary skew).
	DriftEvery int
}

func (g *ClickLogGen) regions() int {
	if g.Regions <= 0 {
		return DefaultRegions
	}
	return g.Regions
}

// Generate produces n click IPs. Region r owns the IP range with high
// bits r, so Geolocate inverts the assignment exactly.
func (g *ClickLogGen) Generate(n int) []uint32 {
	it := g.Iter()
	out := make([]uint32, n)
	for i := range out {
		out[i] = it.Next()
	}
	return out
}

// ClickIter is a sequential click-log generator — the streaming form of
// Generate. The i-th call to Next returns exactly Generate(n)[i] for any
// n > i, so batch and streaming consumers of one configuration see the
// same log.
type ClickIter struct {
	g       ClickLogGen
	sampler *Sampler
	rng     *rand.Rand
	regions int
	low     uint32
	i       int
}

// Iter returns a fresh sequential generator for the configuration.
func (g *ClickLogGen) Iter() *ClickIter {
	return &ClickIter{
		g:       *g,
		sampler: NewSampler(RegionWeights(g.regions(), g.S), g.Seed),
		rng:     rand.New(rand.NewSource(g.Seed + 1)),
		regions: g.regions(),
		low:     uint32(1)<<(32-RegionBits) - 1, // mask of low bits
	}
}

// Next draws the next click IP.
func (it *ClickIter) Next() uint32 {
	r := it.sampler.Next()
	if it.g.DriftEvery > 0 {
		r = (r + it.i/it.g.DriftEvery) % it.regions
	}
	var host uint32
	if it.g.UniquePerRegion > 0 {
		host = uint32(it.rng.Intn(it.g.UniquePerRegion))
	} else {
		host = it.rng.Uint32() & it.low
	}
	it.i++
	return uint32(r)<<(32-RegionBits) | (host & it.low)
}

// DistinctPerRegion computes the ground-truth distinct IP count per
// region for a generated log (the ClickLog application's expected answer).
func DistinctPerRegion(ips []uint32, regions int) []int64 {
	sets := make([]map[uint32]struct{}, regions)
	for i := range sets {
		sets[i] = make(map[uint32]struct{})
	}
	for _, ip := range ips {
		r := Geolocate(ip)
		if r < regions {
			sets[r][ip] = struct{}{}
		}
	}
	out := make([]int64, regions)
	for i, s := range sets {
		out[i] = int64(len(s))
	}
	return out
}

// CountPerRegion computes the raw record count per region.
func CountPerRegion(ips []uint32, regions int) []int64 {
	out := make([]int64, regions)
	for _, ip := range ips {
		r := Geolocate(ip)
		if r < regions {
			out[r]++
		}
	}
	return out
}

// ---- HashJoin relations ----

// Tuple is one relation row: a join key and a payload.
type Tuple struct {
	Key     uint64
	Payload uint64
}

// RelationGen generates join relations. Skew in the key distribution of
// the probe relation produces the "larger hit rate for some keys" the
// paper uses in Table 3.
type RelationGen struct {
	// Keys is the size of the join-key domain.
	Keys int
	// S is the zipf skew of key popularity (0 = uniform).
	S float64
	// Seed seeds the generator.
	Seed int64
}

// Generate produces n tuples.
func (g *RelationGen) Generate(n int) []Tuple {
	sampler := NewSampler(RegionWeights(g.Keys, g.S), g.Seed)
	rng := rand.New(rand.NewSource(g.Seed + 1))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Key: uint64(sampler.Next()), Payload: rng.Uint64()}
	}
	return out
}

// SeqRelation generates a dimension relation holding each key of
// [0, keys) exactly once with a random payload — the build side of the
// planner benchmarks, where one build tuple per key makes join output
// exactly per-probe-record.
func SeqRelation(keys int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, keys)
	for i := range out {
		out[i] = Tuple{Key: uint64(i), Payload: rng.Uint64()}
	}
	return out
}

// ZipfTuples generates n tuples whose keys follow zipf(s) over a keys-
// sized domain — the dataset-generation glue shared by the comparison
// grid (cmd/hurricane-bench) and the hurricane-run jobs.
func ZipfTuples(n, keys int, s float64, seed int64) []Tuple {
	g := RelationGen{Keys: keys, S: s, Seed: seed}
	return g.Generate(n)
}

// KeyCounts computes per-key record counts — the ground-truth oracle for
// every keyed-aggregation workload.
func KeyCounts(ts []Tuple) map[uint64]int64 {
	m := make(map[uint64]int64, 64)
	for _, t := range ts {
		m[t.Key]++
	}
	return m
}

// JoinCount computes the ground-truth number of join output tuples
// between two relations (sum over keys of count_a × count_b).
func JoinCount(a, b []Tuple) int64 {
	ca := make(map[uint64]int64)
	for _, t := range a {
		ca[t.Key]++
	}
	cb := make(map[uint64]int64)
	for _, t := range b {
		cb[t.Key]++
	}
	var total int64
	for k, n := range ca {
		total += n * cb[k]
	}
	return total
}

// ---- R-MAT graphs ----

// Edge is a directed graph edge.
type Edge struct {
	Src, Dst int64
}

// RMATGen generates R-MAT power-law graphs (Chakrabarti et al., cited by
// the paper for its PageRank inputs) with the standard Graph500
// parameters a=0.57, b=0.19, c=0.19, d=0.05.
type RMATGen struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: edges = EdgeFactor × vertices (paper graphs use 16).
	EdgeFactor int
	// Seed seeds the generator.
	Seed int64
	// A, B, C are the quadrant probabilities (defaults 0.57/0.19/0.19).
	A, B, C float64
}

func (g *RMATGen) params() (a, b, c float64) {
	a, b, c = g.A, g.B, g.C
	if a == 0 && b == 0 && c == 0 {
		a, b, c = 0.57, 0.19, 0.19
	}
	return
}

// NumVertices returns 2^Scale.
func (g *RMATGen) NumVertices() int64 { return int64(1) << g.Scale }

// NumEdges returns EdgeFactor × 2^Scale.
func (g *RMATGen) NumEdges() int64 {
	ef := g.EdgeFactor
	if ef <= 0 {
		ef = 16
	}
	return int64(ef) << g.Scale
}

// Generate produces the edge list.
func (g *RMATGen) Generate() []Edge {
	a, b, c := g.params()
	rng := rand.New(rand.NewSource(g.Seed))
	n := g.NumEdges()
	out := make([]Edge, n)
	for i := int64(0); i < n; i++ {
		out[i] = g.edge(rng, a, b, c)
	}
	return out
}

func (g *RMATGen) edge(rng *rand.Rand, a, b, c float64) Edge {
	var src, dst int64
	for bit := g.Scale - 1; bit >= 0; bit-- {
		u := rng.Float64()
		switch {
		case u < a:
			// top-left: no bits set
		case u < a+b:
			dst |= 1 << bit
		case u < a+b+c:
			src |= 1 << bit
		default:
			src |= 1 << bit
			dst |= 1 << bit
		}
	}
	return Edge{Src: src, Dst: dst}
}

// OutDegrees computes per-vertex out-degrees for an edge list.
func OutDegrees(edges []Edge, vertices int64) []int64 {
	deg := make([]int64, vertices)
	for _, e := range edges {
		deg[e.Src]++
	}
	return deg
}

// MaxDegree returns the maximum value in a degree vector (the skew the
// paper's PageRank experiment exercises).
func MaxDegree(deg []int64) int64 {
	var max int64
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	return max
}
