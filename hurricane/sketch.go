package hurricane

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/sketch"
)

// Sketches are the paper's canonical mergeable aggregates (§2.3 cites the
// count-min sketch [16] and HyperLogLog [22] as tasks that "require
// support for merging the partial results of the concurrent workers").
// Each clone builds a sketch over its share of the input; the merge
// combines the sketches cell-wise. Both types serialize to single records
// so they flow through bags like any other data.

// ---- count-min sketch ----

// CountMin is a count-min sketch: a width×depth counter matrix estimating
// per-key frequencies with one-sided error (estimates never undercount).
// The implementation lives in internal/sketch so the storage tier can
// merge producer sketches for the skew-aware shuffle without importing the
// public API.
type CountMin = sketch.CountMin

// NewCountMin creates a sketch with the given width (columns per row) and
// depth (independent hash rows). Estimation error is ≈ 2N/width with
// probability 1 − (1/2)^depth over N insertions.
func NewCountMin(width, depth int) *CountMin { return sketch.NewCountMin(width, depth) }

// DecodeCountMin parses an encoded sketch.
func DecodeCountMin(data []byte) (*CountMin, error) { return sketch.DecodeCountMin(data) }

// ---- edge statistics (the shuffle's and the planner's skew signal) ----

// EdgeStats aggregates what producers know about one shuffle edge:
// per-partition record counts, a count-min sketch of the routed keys, and
// a capped heavy-hitter candidate list. Extract heavy hitters with
// EdgeStats.TopKeys(k, minFraction) — the first-class helper behind
// warm-start seeding — instead of re-deriving them from raw CountMin
// estimates.
type EdgeStats = sketch.EdgeStats

// HeavyKey is one heavy-hitter candidate with its observed count.
type HeavyKey = sketch.HeavyKey

// StatsBuilder accumulates exact per-key counts into an EdgeStats — the
// offline way to build warm statistics for the query planner from a
// sample or a generator's known distribution.
type StatsBuilder = sketch.StatsBuilder

// NewEdgeStats returns empty edge statistics with a default-dimension
// sketch.
func NewEdgeStats() *EdgeStats { return sketch.NewEdgeStats() }

// NewStatsBuilder returns an empty offline statistics builder.
func NewStatsBuilder() *StatsBuilder { return sketch.NewStatsBuilder() }

// DecodeEdgeStats parses an encoded edge-statistics record.
func DecodeEdgeStats(data []byte) (*EdgeStats, error) { return sketch.DecodeEdgeStats(data) }

// EdgeMemory is what a finished job remembers about one partitioned
// shuffle edge (final partition map + its producers' merged statistics).
// Read it from Master.EdgeMemory and feed it to the streaming subsystem's
// warm start or the query planner's StatsFromMemory.
type EdgeMemory = core.EdgeMemory

// ---- HyperLogLog ----

// HLL is a HyperLogLog cardinality estimator with 2^p registers.
type HLL struct {
	p         uint8
	registers []uint8
}

// NewHLL creates an estimator with precision p (4 ≤ p ≤ 16); the standard
// error is ≈ 1.04/sqrt(2^p).
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 16 {
		panic("hurricane: HLL precision must be in [4,16]")
	}
	return &HLL{p: p, registers: make([]uint8, 1<<p)}
}

// mix64 is a murmur3-style finalizer: FNV's high bits are weakly
// distributed for short keys, and HLL derives both its register index and
// its rank from the high bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hllHash digests a key for register selection: FNV-1a folded a word at
// a time (one multiply per 8 bytes instead of one per byte — stdlib
// fnv.New64a also allocates a hash.Hash64 per call, which dominated
// per-record aggregation profiles), then mix64, because word-folded FNV
// has weak high bits and HLL derives both the register index and the
// rank from them. Only intra-run agreement matters: sketches are merged
// across workers of one job, never persisted across processes.
func hllHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	d := uint64(offset64)
	for len(key) >= 8 {
		d = (d ^ binary.LittleEndian.Uint64(key)) * prime64
		key = key[8:]
	}
	for _, b := range key {
		d = (d ^ uint64(b)) * prime64
	}
	return mix64(d)
}

// Add observes one element.
func (h *HLL) Add(key []byte) {
	h.observe(hllHash(key))
}

// AddUint64 observes one uint64 element, identified by its 8-byte
// little-endian encoding. It computes the same digest as Add over that
// encoding — registers end up bit-identical — but folds the word
// directly, keeping byte marshalling and interface indirection off
// vectorized aggregation loops.
func (h *HLL) AddUint64(v uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	// observe's body, open-coded: the extra call frame is measurable in
	// per-record aggregation loops and the compiler stops inlining once
	// mix64 is folded in.
	x := mix64((offset64 ^ v) * prime64)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1)
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

func (h *HLL) observe(x uint64) {
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // avoid zero tail
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// Estimate returns the cardinality estimate.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.registers))
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	// Small-range correction (linear counting).
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// Merge takes the register-wise maximum with another estimator.
func (h *HLL) Merge(other *HLL) error {
	if other.p != h.p {
		return fmt.Errorf("hurricane: HLL precisions differ: %d vs %d", other.p, h.p)
	}
	for i, r := range other.registers {
		if r > h.registers[i] {
			h.registers[i] = r
		}
	}
	return nil
}

// Encode serializes the estimator as one record.
func (h *HLL) Encode() []byte {
	buf := make([]byte, 1+len(h.registers))
	buf[0] = h.p
	copy(buf[1:], h.registers)
	return buf
}

// DecodeHLL parses an encoded estimator.
func DecodeHLL(data []byte) (*HLL, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("hurricane: empty HLL record")
	}
	p := data[0]
	if p < 4 || p > 16 || len(data)-1 != 1<<p {
		return nil, fmt.Errorf("hurricane: bad HLL record (p=%d, %d registers)", p, len(data)-1)
	}
	h := NewHLL(p)
	copy(h.registers, data[1:])
	return h, nil
}
