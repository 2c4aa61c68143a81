// Package shuffle implements Hurricane's skew-aware shuffle subsystem: a
// key-partitioned data exchange between producer and consumer tasks built
// on the existing bag/storage machinery.
//
// A partitioned bag is one *logical* bag multiplexed onto P physical
// partition bags named "<bag>.p<i>". Producers route records by key through
// a PartitionMap; the consumer task gets one worker per physical partition,
// so consumers pull from disjoint bags instead of contending on a single
// monolithic bag. Producers feed key counts into a per-edge count-min sketch
// (see internal/sketch) and push their statistics to the edge's home
// storage slot, one OpSketch call at a time, for the master to fetch; a
// later run warm-starts from what it saw. Its seed map (WarmStart) isolates
// each heavy-hitter key into a dedicated bag ("<bag>.h<k>", optionally
// spread record-wise over "<bag>.h<k>.s<j>" when the edge declares per-key
// atomicity unnecessary) and keeps the sub-partitions ("<bag>.p<i>.s<j>")
// of the map it starts from. An edge's map is fixed when its job is
// submitted: the seed, or the base map every party derives locally. No map
// travels over the storage protocol.
//
// Correctness invariant: every record is routed to exactly one physical
// bag, every physical bag of the edge's map is sealed by the master and
// drained by its owner and any clones sharing it, each chunk by exactly
// one of them, so no record is lost or duplicated.
package shuffle

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// FNV-1a constants. The hash loops are open-coded rather than built on
// hash/fnv because KeyHash sits on the per-record routing path: the
// stdlib constructor materializes a hash.Hash64 allocation per call,
// which profiles as the single largest routing cost at batch rates.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyHash is the canonical 64-bit key hash used for partition routing —
// a key's base partition is KeyHash modulo the edge's base partition
// count, for every producer, the master and the planner alike — and for
// identifying isolated heavy-hitter keys in the partition map.
// It is a word-at-a-time FNV-1a variant with a murmur3-style finalizer:
// one multiply per 8 bytes instead of one per byte (routing hashes every
// record, and typical keys are 8-byte words), and the finalizer repairs
// the weak low bits a word-sized FNV step leaves — partition selection
// is hash mod n, which reads exactly those bits. Only intra-run
// agreement among producers matters; nothing persists hashes across
// processes.
func KeyHash(key []byte) uint64 {
	return keyHashSeeded(fnvOffset64, key)
}

// KeyHashUint64 is KeyHash of the 8-byte little-endian encoding of v,
// computed without materializing the bytes: that encoding is exactly one
// word, so the fold collapses to a single xor-multiply before the
// finalizer. Callers with native uint64 keys (the overwhelmingly common
// shuffle key shape) route through this to keep the byte round-trip off
// per-record paths.
func KeyHashUint64(v uint64) uint64 {
	h := (fnvOffset64 ^ v) * fnvPrime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// subHash is an independently salted hash used to re-hash a hot
// partition's keys across its sub-partitions; using the primary hash again
// would send every key of the partition to the same sub-partition.
func subHash(key []byte) uint64 {
	// (fnvOffset64 ^ 0x9e3779b97f4a7c15) * fnvPrime64 mod 2^64: the FNV
	// seed advanced by one golden-ratio-salted round.
	const saltedSeed uint64 = 0x27a3eeb23259be90
	return keyHashSeeded(saltedSeed, key)
}

func keyHashSeeded(h uint64, key []byte) uint64 {
	for len(key) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(key)) * fnvPrime64
		key = key[8:]
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// PartitionBag names base partition p of a logical bag.
func PartitionBag(bag string, p int) string { return fmt.Sprintf("%s.p%d", bag, p) }

// SubPartitionBag names sub-partition s of a re-hashed hot partition p.
func SubPartitionBag(bag string, p, s int) string { return fmt.Sprintf("%s.p%d.s%d", bag, p, s) }

// IsolatedBag names the dedicated bag(s) for isolated heavy-hitter key i.
// With fan > 1 the key's records are spread over fan bags.
func IsolatedBag(bag string, i, s int, fan int) string {
	if fan <= 1 {
		return fmt.Sprintf("%s.h%d", bag, i)
	}
	return fmt.Sprintf("%s.h%d.s%d", bag, i, s)
}

// EdgeOf returns the logical edge name a physical leaf bag belongs to by
// stripping the ".p<i>[.s<j>]" / ".h<k>[.s<j>]" suffix produced by the
// naming helpers above ("gb.shuf.p1.s3" → "gb.shuf"). Names without a
// partition suffix are returned unchanged. Consumers use it to find the
// edge's sketch slot from the one input bag name they are handed.
func EdgeOf(leaf string) string {
	for range [2]int{} { // at most ".p<i>" then ".s<j>" (or ".h<k>" ".s<j>")
		i := len(leaf) - 1
		for i >= 0 && leaf[i] >= '0' && leaf[i] <= '9' {
			i--
		}
		if i <= 0 || i == len(leaf)-1 || leaf[i-1] != '.' {
			return leaf
		}
		switch leaf[i] {
		case 's':
			leaf = leaf[:i-1]
		case 'p', 'h':
			return leaf[:i-1]
		default:
			return leaf
		}
	}
	return leaf
}

// Isolation diverts one heavy-hitter key (identified by KeyHash) to a
// dedicated bag. Fan > 1 spreads the key's records round-robin over fan
// bags — only valid on edges whose consumer declared record-level
// parallelism safe (BagSpec.Spread). Key carries the raw key bytes when
// the isolating party knew them. Routing only ever consults Hash; the
// bytes make a map say which key it isolated.
type Isolation struct {
	Hash uint64 `json:"hash"`
	Fan  int    `json:"fan"`
	Key  []byte `json:"key,omitempty"`
}

// PartitionMap is the routing table of one shuffle edge. Version 1 is the
// plain hash layout; a seed carries a higher version. A seed only *adds*
// physical bags to the base map of its edge: it keeps Base, so the base
// partitions are leaves of every map of the edge.
type PartitionMap struct {
	Version int    `json:"version"`
	Bag     string `json:"bag"`
	// Base is the number of base hash partitions.
	Base int `json:"base"`
	// Splits maps a base partition index to its re-hash fan: partition p
	// is refined into Splits[p] sub-partitions.
	Splits map[int]int `json:"splits,omitempty"`
	// Isolated lists heavy-hitter keys diverted to dedicated bags, in
	// isolation order (the index names the bag).
	Isolated []Isolation `json:"isolated,omitempty"`
}

// BaseMap returns version 1 of an edge's map: plain hash partitioning over
// parts partitions, which every party of an unseeded edge derives locally.
func BaseMap(bag string, parts int) *PartitionMap {
	if parts < 1 {
		parts = 1
	}
	return &PartitionMap{Version: 1, Bag: bag, Base: parts}
}

// isolation returns the isolation entry for a key hash, if any.
func (pm *PartitionMap) isolation(hash uint64) (int, *Isolation) {
	for i := range pm.Isolated {
		if pm.Isolated[i].Hash == hash {
			return i, &pm.Isolated[i]
		}
	}
	return -1, nil
}

// IsIsolated reports whether the key hash has a dedicated bag.
func (pm *PartitionMap) IsIsolated(hash uint64) bool {
	_, iso := pm.isolation(hash)
	return iso != nil
}

// RouteRef is a compact routing decision: Iso ≥ 0 selects an isolation
// bag (Part is then the spread sub-bag index), otherwise Part/Sub select a
// base partition and optional sub-partition (Sub = -1 when unsplit).
// RouteRef is comparable, so writers cache bag pipelines per ref instead
// of formatting a bag name per record — the shuffle's per-record hot path.
type RouteRef struct {
	Iso, Part, Sub int
}

// RefName formats the physical bag name a ref addresses under this map.
func (pm *PartitionMap) RefName(ref RouteRef) string {
	if ref.Iso >= 0 {
		return IsolatedBag(pm.Bag, ref.Iso, ref.Part, pm.Isolated[ref.Iso].Fan)
	}
	if ref.Sub >= 0 {
		return SubPartitionBag(pm.Bag, ref.Part, ref.Sub)
	}
	return PartitionBag(pm.Bag, ref.Part)
}

// Route returns the physical bag for a key. rr disambiguates spread
// isolations (fan > 1): the caller supplies a round-robin counter so a
// heavy key's records spread evenly; any value is correct, placement only
// affects balance.
func (pm *PartitionMap) Route(key []byte, rr int) string {
	return pm.RefName(pm.routeRefHashed(key, KeyHash(key), rr))
}

// routeRefHashed computes the routing decision for a key whose KeyHash the
// caller already has (a Writer reuses it for the exact key count): the
// key's isolation if it has one, else its base partition — the hash modulo
// Base — and, where that partition is split, the sub-partition an
// independently salted hash of the key selects.
func (pm *PartitionMap) routeRefHashed(key []byte, hash uint64, rr int) RouteRef {
	if len(pm.Isolated) > 0 {
		if i, iso := pm.isolation(hash); iso != nil {
			if iso.Fan <= 1 {
				return RouteRef{Iso: i, Part: 0, Sub: -1}
			}
			return RouteRef{Iso: i, Part: int(uint(rr) % uint(iso.Fan)), Sub: -1}
		}
	}
	p := int(hash % uint64(pm.Base))
	if fan := pm.Splits[p]; fan > 1 {
		return RouteRef{Iso: -1, Part: p, Sub: int(subHash(key) % uint64(fan))}
	}
	return RouteRef{Iso: -1, Part: p, Sub: -1}
}

// BasePartitionIndex parses a base-partition leaf name ("<bag>.p<i>"),
// returning (i, true) if leaf is an unsplit base partition of this map.
func (pm *PartitionMap) BasePartitionIndex(leaf string) (int, bool) {
	for p := 0; p < pm.Base; p++ {
		if pm.Splits[p] > 1 {
			continue
		}
		if PartitionBag(pm.Bag, p) == leaf {
			return p, true
		}
	}
	return 0, false
}

// Leaves returns every physical bag of the current map, in deterministic
// order. The master schedules one consumer worker per leaf and seals every
// leaf when the edge's producers finish. A split base partition stays a
// leaf beside its sub-partitions, although no record routes to it: its
// consumer finds it sealed and empty.
func (pm *PartitionMap) Leaves() []string {
	var out []string
	for p := 0; p < pm.Base; p++ {
		out = append(out, PartitionBag(pm.Bag, p))
		if fan := pm.Splits[p]; fan > 1 {
			for s := 0; s < fan; s++ {
				out = append(out, SubPartitionBag(pm.Bag, p, s))
			}
		}
	}
	for i, iso := range pm.Isolated {
		fan := iso.Fan
		if fan <= 1 {
			out = append(out, IsolatedBag(pm.Bag, i, 0, 1))
		} else {
			for s := 0; s < fan; s++ {
				out = append(out, IsolatedBag(pm.Bag, i, s, fan))
			}
		}
	}
	return out
}

// Clone returns a deep copy.
func (pm *PartitionMap) Clone() *PartitionMap {
	cp := *pm
	if pm.Splits != nil {
		cp.Splits = make(map[int]int, len(pm.Splits))
		for k, v := range pm.Splits {
			cp.Splits[k] = v
		}
	}
	cp.Isolated = append([]Isolation(nil), pm.Isolated...)
	return &cp
}

// Encode serializes the map as one record.
func (pm *PartitionMap) Encode() []byte {
	data, err := json.Marshal(pm)
	if err != nil {
		panic(fmt.Sprintf("shuffle: partition map marshal: %v", err))
	}
	return data
}

const maxLeaves = 1 << 12 // far more consumer workers than an edge has

// Validate refuses a map without a base partition or of more than
// maxLeaves leaves, whatever its source: a corrupt record or a seed must
// not make the edge's master list more.
func (pm *PartitionMap) Validate() error {
	n := min(pm.Base, maxLeaves+1) // at least len(pm.Leaves()), without listing them
	for _, fan := range pm.Splits {
		n += min(max(fan, 0), maxLeaves+1)
	}
	for _, iso := range pm.Isolated {
		n += min(max(iso.Fan, 1), maxLeaves+1)
	}
	if pm.Base < 1 || n > maxLeaves {
		return fmt.Errorf("shuffle: partition map with base %d and %d leaves or more", pm.Base, n)
	}
	return nil
}

// DecodePartitionMap parses an encoded partition map and validates it.
func DecodePartitionMap(data []byte) (*PartitionMap, error) {
	var pm PartitionMap
	if err := json.Unmarshal(data, &pm); err != nil {
		return nil, fmt.Errorf("shuffle: bad partition map record: %w", err)
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	return &pm, nil
}
