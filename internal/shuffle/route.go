package shuffle

import (
	"bytes"
	"encoding/binary"
)

// Routing and exact key counting: the per-record half of a Writer. Every
// record of every write API takes the same steps here: hash the key once,
// route by the shape the current map was adopted with, and count the key in
// an exact table that drains into the edge's count-min sketch at points set
// by the record stream alone — so one stream leaves one sketch and one
// heavy-key list however it was cut into calls.

// tickEvery is how many records a writer routes between ticks: the count
// table's drain into the sketch and a look at the exchange gate.
const tickEvery = 1024

// adopt makes pm the writer's routing table and decides the routing shape
// once per map, not once per record or per batch: plain means a map
// without splits or isolations, where a route is the key hash reduced to a
// base partition — by mask when the partition count is a power of two
// above one (the 64-bit divide is otherwise the largest single instruction
// on the routing path).
func (w *Writer) adopt(pm *PartitionMap) {
	w.pm = pm
	w.plain = len(pm.Isolated) == 0 && len(pm.Splits) == 0
	w.base, w.mask = uint64(pm.Base), 0
	if w.base&(w.base-1) == 0 {
		w.mask = w.base - 1
	}
}

// routePlain is the routing decision under a plain map, and ok false under
// any other: then routeRefined decides. Two steps because the first, free
// of calls, inlines into the routing loops.
func (w *Writer) routePlain(hash uint64) (ref RouteRef, ok bool) {
	if !w.plain {
		return ref, false
	}
	if w.mask != 0 {
		return RouteRef{Iso: -1, Part: int(hash & w.mask), Sub: -1}, true
	}
	return RouteRef{Iso: -1, Part: int(hash % w.base), Sub: -1}, true
}

// routeRefined routes under a refined map, the only case that reads the
// key. The record's ordinal spreads an isolated key's records round-robin,
// so placement depends on the stream alone.
func (w *Writer) routeRefined(key []byte, hash uint64) RouteRef {
	return w.pm.routeRefHashed(key, hash, int(w.n))
}

// RouteKey routes and counts one record by its key bytes. The record is the
// caller's to place: hand its chunk, in time, to InsertBatchChunk under the
// returned ref.
func (w *Writer) RouteKey(key []byte) RouteRef {
	if w.n%tickEvery == 0 {
		w.tick()
	}
	hash := KeyHash(key)
	ref, ok := w.routePlain(hash)
	if !ok {
		ref = w.routeRefined(key, hash)
	}
	w.countKey(key, slotKey8(key), int32(len(key)), hash)
	w.n++
	return ref
}

// PartitionBatchUint64 is RouteKey over a batch of uint64 keys, identified
// by their 8-byte little-endian encoding (the Uint64Key convention); the
// returned routing vector is reused by the next call. Routing
// and counting work on the words directly — KeyHashUint64 agrees with
// KeyHash over the encoding, so the placement is RouteKey's — and key bytes
// materialize only under a refined map, and once per distinct key per drain
// when a count slot is first claimed. This loop is the uint64 routing path:
// RouteUint64 is one turn of it.
func (w *Writer) PartitionBatchUint64(keys []uint64) []RouteRef {
	if cap(w.refs) < len(keys) {
		w.refs = make([]RouteRef, len(keys))
	}
	refs := w.refs[:len(keys)]
	for i, v := range keys {
		if w.n%tickEvery == 0 {
			w.tick()
		}
		hash := KeyHashUint64(v)
		ref, ok := w.routePlain(hash)
		if !ok {
			binary.LittleEndian.PutUint64(w.kb[:], v)
			ref = w.routeRefined(w.kb[:], hash)
		}
		refs[i] = ref
		w.countKey(nil, v, 8, hash)
		w.n++
	}
	return refs
}

// RouteUint64 is RouteKey for a uint64 key.
func (w *Writer) RouteUint64(v uint64) RouteRef {
	w.one[0] = v
	return w.PartitionBatchUint64(w.one[:])[0]
}

// countTabSlots sizes the count table. Power of two; holds up to
// countTabSlots/2 distinct keys before an early drain. A skewed stretch of
// tickEvery records rarely has that many, so the steady state is one drain
// per tick with zero allocations.
const countTabSlots = 512

// countSlot is one entry of the key count table. n doubles as the
// occupancy marker (occupied slots always count at least one record); key
// storage is reused across drains. key8 holds the first
// min(len,8) key bytes inline (little-endian, zero-padded): for keys of
// at most 8 bytes — the common case, e.g. Uint64Key — the equality check
// is three register compares with no pointer chase into the stored copy.
type countSlot struct {
	hash uint64
	n    uint64
	key8 uint64
	klen int32
	key  []byte
}

// slotKey8 packs key's first bytes for countSlot.key8.
func slotKey8(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.LittleEndian.Uint64(key)
	}
	var v uint64
	for i := len(key) - 1; i >= 0; i-- {
		v = v<<8 | uint64(key[i])
	}
	return v
}

// countKey adds one record to its key's count, reusing the routing hash
// instead of re-hashing through the runtime map. The open table replaces a
// map[string]uint64 whose per-record assign (string hashing plus bucket
// walk) dominated the routing profile. key8 and klen identify a key of at
// most 8 bytes completely; a uint64 key passes them alone (key nil, klen
// 8), and its bytes materialize only when a slot is claimed, for the drain.
func (w *Writer) countKey(key []byte, key8 uint64, klen int32, hash uint64) {
	// Skewed streams repeat keys on consecutive records; the previous
	// record's slot resolves those with one compare, no table probe.
	if s := w.lastSlot; s != nil && s.key8 == key8 && s.klen == klen && s.hash == hash &&
		(klen <= 8 || bytes.Equal(s.key, key)) {
		s.n++
		return
	}
	if w.tab == nil {
		w.tab = make([]countSlot, countTabSlots)
	}
	if len(w.live) >= countTabSlots/2 {
		// High key cardinality: feed the sketch early and reuse the
		// table. Count-min adds accumulate, so splitting one stretch's
		// feed into several keeps the counts exact.
		w.drainCounts()
	}
	for i := hash & (countTabSlots - 1); ; i = (i + 1) & (countTabSlots - 1) {
		s := &w.tab[i]
		if s.n == 0 {
			s.hash, s.key8, s.klen, s.n = hash, key8, klen, 1
			if key == nil {
				s.key = binary.LittleEndian.AppendUint64(s.key[:0], key8)
			} else {
				s.key = append(s.key[:0], key...)
			}
			w.live = append(w.live, int32(i))
			w.lastSlot = s
			return
		}
		if s.hash == hash && s.key8 == key8 && s.klen == klen && (klen <= 8 || bytes.Equal(s.key, key)) {
			s.n++
			w.lastSlot = s
			return
		}
	}
}

// drainCounts feeds the accumulated per-key counts to the edge's count-min
// sketch — exact counts per distinct key, the sketch's only feed — and
// resets the table.
func (w *Writer) drainCounts() {
	for _, i := range w.live {
		s := &w.tab[i]
		w.stats.CM.Add(s.key, s.n)
		w.noteHeavy(s.key)
		s.n = 0
	}
	w.live = w.live[:0]
	w.lastSlot = nil
}
