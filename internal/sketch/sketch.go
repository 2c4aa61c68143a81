// Package sketch implements the mergeable frequency sketches that drive
// Hurricane's skew detection. The count-min sketch is the paper's canonical
// mergeable aggregate (§2.3); the shuffle subsystem additionally uses it on
// the producer side, inside EdgeStats: every partitioned writer counts its
// routed records per partition, exactly, and keeps a short list of
// heavy-hitter candidates; each producer worker's done record carries its
// counts and candidates, and the application master merges them when the
// edge seals, to find the hot partitions and the keys a later run should
// isolate (in the spirit of Reshape's hot-partition detection and
// SharesSkew's dedicated heavy-hitter handling). The count-min cells are
// what prices a candidate: a writer feeds them only the keys heavy in some
// stretch of its stream (internal/shuffle, route.go), so nothing reads them
// for any other key, and they stay with the writer.
//
// The package sits below the public hurricane package (which re-exports
// CountMin) and the engine, so it must not import any other engine
// package.
package sketch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Default count-min dimensions used by the shuffle subsystem: ε ≈ 2/width
// ≈ 0.2% of insertions, δ = (1/2)^depth ≈ 6%.
const (
	DefaultWidth = 1024
	DefaultDepth = 4
)

// MaxHeavyKeys caps the heavy-hitter candidate list carried by EdgeStats.
const MaxHeavyKeys = 32

// CountMin is a count-min sketch: a width×depth counter matrix estimating
// per-key frequencies with one-sided error (estimates never undercount).
type CountMin struct {
	width, depth int
	counts       []uint64 // depth rows of width counters
}

// NewCountMin creates a sketch with the given width (columns per row) and
// depth (independent hash rows). Estimation error is ≈ 2N/width with
// probability 1 − (1/2)^depth over N insertions.
func NewCountMin(width, depth int) *CountMin {
	if width < 1 || depth < 1 {
		panic("sketch: count-min dimensions must be positive")
	}
	return &CountMin{width: width, depth: depth, counts: make([]uint64, width*depth)}
}

// mix64 is a murmur3-style finalizer used to derive the second hash for
// Kirsch–Mitzenmacher double hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// cmHashes derives the per-row hashes from a single FNV pass over the key
// (Kirsch–Mitzenmacher: h_r = h1 + r·h2): one key scan instead of depth
// scans.
func cmHashes(key []byte) (h1, h2 uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 = h.Sum64()
	h2 = mix64(h1) | 1 // odd, so rows stay distinct mod any width
	return
}

// Add increments key's count by n and returns the key's new estimate: it
// has just touched every cell Estimate would read, so a caller that wants
// both (the shuffle writer's heavy-key list) hashes the key once.
func (c *CountMin) Add(key []byte, n uint64) uint64 {
	h1, h2 := cmHashes(key)
	est := uint64(math.MaxUint64)
	for r := 0; r < c.depth; r++ {
		idx := r*c.width + int((h1+uint64(r)*h2)%uint64(c.width))
		v := c.counts[idx] + n
		c.counts[idx] = v
		est = min(est, v) // branch-free: a branch here stalls the rows' divides
	}
	return est
}

// Estimate returns the (over-)estimate of key's count.
func (c *CountMin) Estimate(key []byte) uint64 {
	h1, h2 := cmHashes(key)
	est := uint64(math.MaxUint64)
	for r := 0; r < c.depth; r++ {
		idx := r*c.width + int((h1+uint64(r)*h2)%uint64(c.width))
		if c.counts[idx] < est {
			est = c.counts[idx]
		}
	}
	return est
}

// Merge adds another sketch of identical dimensions cell-wise.
func (c *CountMin) Merge(other *CountMin) error {
	if other.width != c.width || other.depth != c.depth {
		return fmt.Errorf("sketch: count-min dimensions %dx%d != %dx%d",
			other.width, other.depth, c.width, c.depth)
	}
	for i, v := range other.counts {
		c.counts[i] += v
	}
	return nil
}

// AppendTo appends the sketch's encoding to buf.
func (c *CountMin) AppendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.width))
	buf = binary.AppendUvarint(buf, uint64(c.depth))
	for _, v := range c.counts {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// Encode serializes the sketch as one record.
func (c *CountMin) Encode() []byte { return c.AppendTo(nil) }

// DecodeCountMin parses an encoded sketch.
func DecodeCountMin(data []byte) (*CountMin, error) {
	w, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("sketch: bad count-min record")
	}
	data = data[n:]
	d, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("sketch: bad count-min record")
	}
	data = data[n:]
	// Bound each dimension before multiplying: a crafted blob with
	// w ≈ 2^63 would overflow w*d past the guard and panic NewCountMin.
	if w == 0 || d == 0 || w > 1<<28 || d > 64 || w*d > 1<<28 {
		return nil, fmt.Errorf("sketch: implausible count-min dimensions %dx%d", w, d)
	}
	// Every counter takes at least one byte: reject dimensions the record
	// cannot hold before allocating the matrix.
	if w*d > uint64(len(data)) {
		return nil, fmt.Errorf("sketch: truncated count-min record")
	}
	c := NewCountMin(int(w), int(d))
	for i := range c.counts {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("sketch: truncated count-min record")
		}
		c.counts[i] = v
		data = data[n:]
	}
	return c, nil
}

// ---- per-edge shuffle statistics ----

// HeavyKey is one heavy-hitter candidate observed by a partitioned writer.
type HeavyKey struct {
	Key   []byte `json:"key"`
	Count uint64 `json:"count"`
}

// EdgeStats aggregates what producers know about one shuffle edge: how many
// records landed in each physical partition bag, a capped list of
// heavy-hitter candidates, and the count-min sketch their counts came from.
// Counts and Heavy are what the master, the planner and the warm starts
// read, and all a done record carries: CM is not marshalled to JSON. A
// shuffle writer's candidate count is never below the key's true count by
// more than 1/64 of the writer's records, and never above it by more than
// the count-min error over the keys the writer fed.
type EdgeStats struct {
	// Counts maps physical partition bag name -> records routed there.
	Counts map[string]uint64 `json:"counts,omitempty"`
	// CM sketches per-key frequencies: of every key for a StatsBuilder, of
	// the keys heavy in some stretch of its stream for a shuffle writer.
	CM *CountMin `json:"-"`
	// Heavy lists heavy-hitter candidate keys with their counts.
	Heavy []HeavyKey `json:"heavy,omitempty"`
}

// NewEdgeStats returns empty stats with a default-dimension sketch.
func NewEdgeStats() *EdgeStats {
	return &EdgeStats{
		Counts: make(map[string]uint64),
		CM:     NewCountMin(DefaultWidth, DefaultDepth),
	}
}

// Total returns the total number of records recorded across partitions.
func (e *EdgeStats) Total() uint64 {
	var t uint64
	for _, c := range e.Counts {
		t += c
	}
	return t
}

// Merge folds another stats blob into e: partition counts add, sketches
// merge cell-wise, and heavy lists combine key-wise (keeping the top
// MaxHeavyKeys by count). Merging per-producer stats this way yields the
// same result as a single producer having observed the union.
func (e *EdgeStats) Merge(other *EdgeStats) error {
	// The sketch merge is the only step that can fail, so it goes first: a
	// failed Merge leaves e as it was.
	if other.CM != nil {
		if e.CM == nil {
			e.CM = NewCountMin(other.CM.width, other.CM.depth)
		}
		if err := e.CM.Merge(other.CM); err != nil {
			return err
		}
	}
	if e.Counts == nil {
		e.Counts = make(map[string]uint64)
	}
	for k, v := range other.Counts {
		e.Counts[k] += v
	}
	if len(other.Heavy) > 0 {
		byKey := make(map[string]uint64, len(e.Heavy)+len(other.Heavy))
		for _, h := range e.Heavy {
			byKey[string(h.Key)] += h.Count
		}
		for _, h := range other.Heavy {
			byKey[string(h.Key)] += h.Count
		}
		merged := make([]HeavyKey, 0, len(byKey))
		for k, c := range byKey {
			merged = append(merged, HeavyKey{Key: []byte(k), Count: c})
		}
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Count != merged[j].Count {
				return merged[i].Count > merged[j].Count
			}
			return string(merged[i].Key) < string(merged[j].Key)
		})
		if len(merged) > MaxHeavyKeys {
			merged = merged[:MaxHeavyKeys]
		}
		e.Heavy = merged
	}
	return nil
}

// TopKeys returns the heavy-hitter candidates whose observed share of the
// edge's records is at least minFraction of the total, capped at k and
// sorted by descending count (ties by key bytes). This is the first-class
// heavy-hitter extraction behind warm-start seeding (shuffle.WarmStart, for
// the planner's groupby edges and stream windows) — the one place the "how
// heavy is heavy" arithmetic lives.
func (e *EdgeStats) TopKeys(k int, minFraction float64) []HeavyKey {
	total := e.Total()
	if total == 0 || k <= 0 {
		return nil
	}
	sorted := make([]HeavyKey, len(e.Heavy))
	copy(sorted, e.Heavy)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return string(sorted[i].Key) < string(sorted[j].Key)
	})
	threshold := minFraction * float64(total)
	out := make([]HeavyKey, 0, k)
	for _, hk := range sorted {
		if len(out) == k {
			break
		}
		if float64(hk.Count) < threshold {
			break // sorted descending: nothing later qualifies
		}
		out = append(out, hk)
	}
	return out
}

// ---- offline stats construction ----

// StatsBuilder accumulates exact per-key counts into an EdgeStats — the
// offline (warm-start) counterpart of the shuffle writer's streaming
// sketch. Use it to build compile-time statistics for the query planner
// from a sample, a generator's known output, or a test's synthetic
// distribution: the count-min sketch is fed every observation and the
// heavy-candidate list is exact (top MaxHeavyKeys by count).
type StatsBuilder struct {
	counts map[string]uint64
	total  uint64
}

// NewStatsBuilder returns an empty builder.
func NewStatsBuilder() *StatsBuilder {
	return &StatsBuilder{counts: make(map[string]uint64)}
}

// Add observes n records of key.
func (b *StatsBuilder) Add(key []byte, n uint64) {
	b.counts[string(key)] += n
	b.total += n
}

// Stats freezes the observations into an EdgeStats. The partition-count
// map carries the total under a synthetic leaf name ("~sample") so
// Total() — which thresholds every heavy-hitter decision — reflects the
// observed volume without claiming knowledge of any physical layout.
func (b *StatsBuilder) Stats() *EdgeStats {
	e := NewEdgeStats()
	e.Counts["~sample"] = b.total
	for k, n := range b.counts {
		key := []byte(k)
		e.CM.Add(key, n)
		e.Heavy = append(e.Heavy, HeavyKey{Key: key, Count: n})
	}
	sort.Slice(e.Heavy, func(i, j int) bool {
		if e.Heavy[i].Count != e.Heavy[j].Count {
			return e.Heavy[i].Count > e.Heavy[j].Count
		}
		return string(e.Heavy[i].Key) < string(e.Heavy[j].Key)
	})
	if len(e.Heavy) > MaxHeavyKeys {
		e.Heavy = e.Heavy[:MaxHeavyKeys]
	}
	return e
}

// statsFormat leads every encoded EdgeStats. It is not a printable
// character, so no text format is ever mistaken for a stats record.
const statsFormat = 0x01

// AppendTo appends the stats' binary encoding to buf: the format byte, the
// partition counts, the heavy-hitter candidates, and the count-min sketch
// (absent when CM is nil) — uvarints and length-prefixed strings throughout,
// no intermediate buffers.
func (e *EdgeStats) AppendTo(buf []byte) []byte {
	buf = append(buf, statsFormat)
	buf = binary.AppendUvarint(buf, uint64(len(e.Counts)))
	for name, n := range e.Counts {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Heavy)))
	for _, h := range e.Heavy {
		buf = binary.AppendUvarint(buf, uint64(len(h.Key)))
		buf = append(buf, h.Key...)
		buf = binary.AppendUvarint(buf, h.Count)
	}
	if e.CM != nil {
		buf = e.CM.AppendTo(buf)
	}
	return buf
}

// Encode serializes the stats as one record.
func (e *EdgeStats) Encode() ([]byte, error) { return e.AppendTo(nil), nil }

// DecodeEdgeStats parses an encoded stats record. The result shares no
// memory with data.
func DecodeEdgeStats(data []byte) (*EdgeStats, error) {
	bad := func(what string) (*EdgeStats, error) {
		return nil, fmt.Errorf("sketch: bad edge-stats record: %s", what)
	}
	if len(data) == 0 || data[0] != statsFormat {
		return bad("unknown format")
	}
	data = data[1:]
	// field reads one length-prefixed byte string followed by a uvarint.
	field := func() (key []byte, n uint64, ok bool) {
		size, k := binary.Uvarint(data)
		if k <= 0 || size > uint64(len(data)-k) {
			return nil, 0, false
		}
		key, data = data[k:k+int(size)], data[k+int(size):]
		n, k = binary.Uvarint(data)
		if k <= 0 {
			return nil, 0, false
		}
		data = data[k:]
		return key, n, true
	}
	// count reads an entry count; every entry takes at least two bytes,
	// so a count the record cannot hold is rejected before allocating.
	count := func() (int, bool) {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k)/2 {
			return 0, false
		}
		data = data[k:]
		return int(n), true
	}
	e := &EdgeStats{}
	n, ok := count()
	if !ok {
		return bad("partition counts")
	}
	e.Counts = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		name, c, ok := field()
		if !ok {
			return bad("partition counts")
		}
		e.Counts[string(name)] = c
	}
	if n, ok = count(); !ok {
		return bad("heavy keys")
	}
	for i := 0; i < n; i++ {
		key, c, ok := field()
		if !ok {
			return bad("heavy keys")
		}
		e.Heavy = append(e.Heavy, HeavyKey{Key: append([]byte(nil), key...), Count: c})
	}
	if len(data) > 0 {
		cm, err := DecodeCountMin(data)
		if err != nil {
			return nil, err
		}
		e.CM = cm
	}
	return e, nil
}
