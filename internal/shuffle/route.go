package shuffle

import (
	"bytes"
	"encoding/binary"
)

// Routing and exact key counting: the per-record half of a Writer. Every
// record of every write API takes one step here (step): tick when a stretch
// is due, route by the shape the current map was adopted with, and count
// the key — hashed once by the caller — in an exact table. The table covers
// one stretch of the stream at a time, and the stretches end at points set
// by the record stream alone — so one stream leaves one sketch and one
// heavy-key list however it was cut into calls.
//
// What the statistics cost is what the heavy keys cost. Every record is
// counted exactly in the stretch table, and that is all a light key ever
// pays. When a stretch ends (drainCounts), only the keys that held at least
// 1/stretchFeedFraction of it go on to the edge's count-min sketch and the
// heavy-key list (noteHeavy, writer.go): only keys above records ÷
// partitions need their frequency known at all, and no such key can stay
// below that line stretch after stretch. So the count-min cells hold
// stretch-heavy keys only — an estimate of any other key reads what happens
// to share its cells — and a candidate's count is never below the key's
// true count by more than records/stretchFeedFraction.

// tickEvery is how many records a writer routes between ticks: the end of
// the count table's stretch and a look at the exchange gate.
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

// step is the per-record path, whole: tick when a stretch is due, route,
// count, advance — for every record of every write API (WriteBatch's loop
// inlines its common case). hash is KeyHash of the key's bytes. A uint64 key
// passes key nil, its word as key8 and klen 8: its bytes materialize only
// under a refined map, and at a drain for the keys it feeds.
func (w *Writer) step(key []byte, key8 uint64, klen int32, hash uint64) RouteRef {
	if w.n%tickEvery == 0 {
		w.tick()
	}
	ref := RouteRef{Iso: -1, Part: w.routePlain(hash), Sub: -1}
	if !w.plain {
		if len(key) != int(klen) { // a uint64 key
			binary.LittleEndian.PutUint64(w.kb[:], key8)
			key = w.kb[:]
		}
		ref = w.pm.routeRefHashed(key, hash, int(w.n)) // the ordinal spreads an isolated key
	}
	if !w.countHit(key8, klen, hash) {
		w.countKey(key, key8, klen, hash)
	}
	w.n++
	return ref
}

// routePlain is a key's base partition under a plain map.
func (w *Writer) routePlain(hash uint64) int {
	if w.mask != 0 {
		return int(hash & w.mask)
	}
	return int(hash % w.base)
}

// RouteKey routes and counts one record by its key bytes. The record is the
// caller's to place: hand its chunk, in time, to InsertBatchChunk under the
// returned ref.
func (w *Writer) RouteKey(key []byte) RouteRef {
	return w.step(key, slotKey8(key), int32(len(key)), KeyHash(key))
}

// RouteUint64 is RouteKey for a uint64 key, identified by its 8-byte
// little-endian encoding (the Uint64Key convention): KeyHashUint64 agrees
// with KeyHash over the encoding, so the placement is RouteKey's.
func (w *Writer) RouteUint64(v uint64) RouteRef {
	return w.step(nil, v, 8, KeyHashUint64(v))
}

// PartitionBatchUint64 is RouteUint64 over a batch of keys; the returned
// routing vector is reused by the next call.
func (w *Writer) PartitionBatchUint64(keys []uint64) []RouteRef {
	if cap(w.refs) < len(keys) {
		w.refs = make([]RouteRef, len(keys))
	}
	refs := w.refs[:len(keys)]
	for i, v := range keys {
		refs[i] = w.step(nil, v, 8, KeyHashUint64(v))
	}
	return refs
}

// countTabSlots sizes the count table. Power of two; a stretch claims at
// most countTabSlots/2 of its slots before an early drain. A skewed stretch
// of tickEvery records rarely has that many distinct keys, so the steady
// state is one drain per tick, and the whole table (8 KB) stays in L1
// beside the leaf encoders.
const countTabSlots = 512

// countSlot is one entry of the key count table: what identifies a key and
// how often the stretch held it. n doubles as the occupancy marker (an
// occupied slot counts at least one record, and a stretch is at most
// tickEvery records). key8 holds the first min(klen,8) key bytes inline
// (little-endian, zero-padded): with klen it identifies a key of at most 8
// bytes — the common case, e.g. Uint64Key — completely, so the equality
// check is two register compares. The bytes of a longer key live in
// Writer.long under the slot's index.
type countSlot struct {
	key8 uint64
	klen int32
	n    uint32
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

// countHit counts a record at the first slot its hash probes — holding its
// key, or free and claimed for it — or reports false, having done nothing,
// and countKey probes on. Hits and claims alternate unpredictably (a third
// of a Zipf(1.3) stretch are first sightings), so it takes either without a
// branch; it makes no call, so it inlines into step and WriteBatch.
func (w *Writer) countHit(key8 uint64, klen int32, hash uint64) bool {
	s := &w.tab[hash&(countTabSlots-1)]
	if klen > 8 || w.nlive == len(w.live) || min(uint64(s.n), s.key8^key8|uint64(uint32(s.klen^klen))) != 0 {
		return false
	}
	w.live[w.nlive] = int32(hash & (countTabSlots - 1))
	w.nlive += 1 - int(min(s.n, 1)) // a claim keeps the entry
	s.key8, s.klen = key8, klen
	s.n++
	return true
}

// countKey adds one record to its key's exact count for the current
// stretch where countHit cannot: past other keys' slots, for a long key, on
// a full table. A short key's bytes are not read here; a drain rebuilds
// them from the slot for the few keys it feeds.
func (w *Writer) countKey(key []byte, key8 uint64, klen int32, hash uint64) {
	for i := hash & (countTabSlots - 1); ; i = (i + 1) & (countTabSlots - 1) {
		s := &w.tab[i]
		if s.n == 0 {
			if w.nlive == len(w.live) {
				// High key cardinality: close the stretch early and reuse
				// the table. Only a claim gets here, so a full table of
				// repeating keys counts on to the tick.
				w.drainCounts()
				i = hash & (countTabSlots - 1)
				s = &w.tab[i]
			}
			s.key8, s.klen, s.n = key8, klen, 1
			if klen > 8 {
				if w.long == nil {
					w.long = make([][]byte, countTabSlots)
				}
				w.long[i] = append(w.long[i][:0], key...)
			}
			w.live[w.nlive] = int32(i)
			w.nlive++
			return
		}
		if s.key8 == key8 && s.klen == klen && (klen <= 8 || bytes.Equal(w.long[i], key)) {
			s.n++
			return
		}
	}
}

// slotKey returns the bytes of the key counted in slot i, good until the
// next call: a long key's stored copy, a short key's rebuilt from key8.
func (w *Writer) slotKey(i int32, s *countSlot) []byte {
	if s.klen > 8 {
		return w.long[i]
	}
	binary.LittleEndian.PutUint64(w.kb[:], s.key8)
	return w.kb[:s.klen]
}

// drainCounts closes a stretch: the m records counted since the last drain.
// Of the table's exact per-key counts it feeds the edge's count-min sketch,
// and offers to the heavy-key list, only the keys that took at least
// m/stretchFeedFraction of the stretch — at most stretchFeedFraction keys,
// whatever the stretch's cardinality — and then resets the table.
func (w *Writer) drainCounts() {
	m := w.n - w.drained
	w.drained = w.n
	for _, i := range w.live[:w.nlive] {
		s := &w.tab[i]
		if n := uint64(s.n); n*stretchFeedFraction >= m {
			key := w.slotKey(i, s)
			w.noteHeavy(key, w.stats.CM.Add(key, n))
			w.feeds++
		}
		s.n = 0
	}
	w.nlive = 0
}
