package shuffle

import (
	"bytes"
	"encoding/binary"

	"repro/internal/sketch"
)

// Routing and exact key counting: the per-record half of a Writer. Every
// record is routed by its key's hash — hashed once by the caller — under
// the shape the map was adopted with, and its key is counted in an exact
// table, with a tick ahead of every tickEvery-th record. The table covers
// one stretch of the stream at a time, and every stretch is tickEvery
// records, whatever keys it holds — so one stream leaves one sketch and one
// heavy-key list however it was cut into calls.
//
// Two loops do it, and a block of records takes one of them whole. The
// general loop takes any key under any map: step, a record at a time, for
// RouteKey and RouteUint64, and inline in a Scatter's block (Scatter.group).
// The word loop takes a block under a plain map while every key the writer
// has routed is 8 bytes and so is every key of the block, whichever API
// brought it and whether the scatter keys it by uint64 or by bytes: a
// pre-pass (Scatter.keyWords) reads the block's keys into one vector of key
// words, and the loop counts them through countHit8, a compare of the key
// word alone, and ticks only where a stretch ends, so its inner loop has no
// tick test. A Scatter chooses it once per block, and PartitionBatchUint64
// once per call. The width guard (Writer.otherWidth) is what keeps the word
// compare exact: a shorter key packs into a slot's key8 like the word its
// bytes zero-pad to ("a" and 0x61), and only the slot's klen tells them
// apart — so the pre-pass leaves a block at its first key of another
// width, having counted none of it, the general loop flags that key before
// it is counted, and every later block takes the general loop.
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

// tickEvery is how many records a writer routes between ticks, each the
// end of a stretch of the count table (drainCounts): the table has room
// for tickEvery distinct keys (countTabSlots), so no stretch ends early.
const tickEvery = 1024

// adopt makes pm the writer's routing table and decides the routing shape
// once per map, not once per record or per batch: plain means a map
// without isolations, where a route is the key hash reduced to a base
// partition — by mask when the partition count is a power of two
// above one (the 64-bit divide is otherwise the largest single instruction
// on the routing path).
func (w *Writer) adopt(pm *PartitionMap) {
	w.pm = pm
	w.plain = len(pm.Isolated) == 0
	w.base, w.mask = uint64(pm.Base), 0
	if w.base&(w.base-1) == 0 {
		w.mask = w.base - 1
	}
}

// step is the general loop's per-record path, whole: tick when a stretch
// is due, route, count, advance (Scatter.group has it inline). hash is
// KeyHash of the key's bytes. A uint64 key passes key nil, its word as key8
// and klen 8: its bytes materialize only at a drain, for the keys it feeds.
func (w *Writer) step(key []byte, key8 uint64, klen int32, hash uint64) RouteRef {
	if w.n%tickEvery == 0 {
		w.drainCounts()
	}
	ref := RouteRef{Iso: -1, Part: w.routePlain(hash)}
	if !w.plain {
		ref = w.routeIsolated(hash)
	}
	if !w.countHit(key8, klen, hash) {
		w.countKey(key, key8, klen, hash)
	}
	w.n++
	return ref
}

// routeIsolated is a key's route under a map with isolations: by its hash
// alone, like every route.
func (w *Writer) routeIsolated(hash uint64) RouteRef {
	return w.pm.routeRefHashed(hash, int(w.n)) // the ordinal spreads an isolated key
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
	if len(key) != 8 {
		w.otherWidth = true // before the key is counted
	}
	return w.step(key, slotKey8(key), int32(len(key)), KeyHash(key))
}

// RouteUint64 is RouteKey for a uint64 key, which stands for its 8
// little-endian bytes (as a partitioned writer's uint64 key does):
// KeyHashUint64 agrees with KeyHash over those bytes, so the placement is
// RouteKey's.
func (w *Writer) RouteUint64(v uint64) RouteRef {
	return w.step(nil, v, 8, KeyHashUint64(v))
}

// PartitionBatchUint64 is RouteUint64 over a batch of keys; the returned
// routing vector is reused by the next call. It takes the word loop when a
// Scatter would (words), so it prices the count that ships.
func (w *Writer) PartitionBatchUint64(keys []uint64) []RouteRef {
	if cap(w.refs) < len(keys) {
		w.refs = make([]RouteRef, len(keys))
	}
	refs := w.refs[:len(keys)]
	if !w.words() {
		for i, v := range keys {
			refs[i] = w.step(nil, v, 8, KeyHashUint64(v))
		}
		return refs
	}
	for lo := 0; lo < len(keys); {
		hi := lo + w.stretchRoom(len(keys)-lo)
		for i := lo; i < hi; i++ {
			hash := KeyHashUint64(keys[i])
			if !w.countHit8(keys[i], hash) {
				w.countKey(nil, keys[i], 8, hash)
			}
			refs[i] = RouteRef{Iso: -1, Part: w.routePlain(hash)}
		}
		w.n += uint64(hi - lo)
		lo = hi
	}
	return refs
}

// words reports whether a block of 8-byte keys may take the word loop: the
// map is plain and no key of another width than 8 bytes was ever routed.
func (w *Writer) words() bool { return w.plain && !w.otherWidth }

// stretchRoom is the word loop's tick: it ticks if a stretch is due, as
// step does, and returns how many of the next n records the current
// stretch has room for — the run the word loop takes before it advances
// w.n and looks again.
func (w *Writer) stretchRoom(n int) int {
	if w.n%tickEvery == 0 {
		w.drainCounts()
	}
	return min(n, int(tickEvery-w.n%tickEvery))
}

// countTabSlots sizes the count table (16 bytes a slot): a power of two,
// and twice tickEvery, so that a stretch — at most tickEvery distinct keys —
// never fills it, and linear probes stay short at the half-full worst case.
// Measured distinct keys per stretch (median, and range): 258 (226–297) on
// routeBenchKeys' Zipf(1.3) over 2^16 keys; at seed 47, 259 (218–298) in
// the groupby producers of benchmark/, 245 (206–280) in its join's and
// 34 (24–45) in its Zipf(2) groupby over 64 keys. Half the Zipf(1.3)
// stretches hold more than 256 keys: a table sized for "rarely more" would
// cut them short.
const countTabSlots = 2 * tickEvery

// feedLine is the count that feeds a key of a full stretch to the sketch:
// tickEvery/stretchFeedFraction records.
const feedLine = tickEvery / stretchFeedFraction

// countSlot is one entry of the key count table: what identifies a key and
// how often the current stretch held it. key8 holds the first min(klen,8)
// key bytes inline (little-endian, zero-padded): with klen it identifies a
// key of at most 8 bytes — the common case, e.g. a uint64 key — completely,
// so the equality check is two register compares. The bytes of a longer key
// live in Writer.long under the slot's index. c stamps the slot against
// Writer.floor, a multiple of countTabSlots: a slot stamped above the floor
// holds a key of the current stretch, counted c - floor (= c%countTabSlots)
// times, and any other slot is free. A drain frees the table by raising the
// floor past every stamp, so no pass resets it.
type countSlot struct {
	key8 uint64
	klen int32
	c    uint32
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
// and countKey probes on. Hits and claims alternate unpredictably (a
// quarter of a Zipf(1.3) stretch are first sightings), so it takes either
// without a branch: a free slot's stamp reads as the floor, a count of 0.
// It makes no call, so it inlines into step and Scatter.group; countHit8
// is its copy for the word loop.
func (w *Writer) countHit(key8 uint64, klen int32, hash uint64) bool {
	s := &w.tab[hash%countTabSlots]
	c := max(s.c, w.floor)
	if klen > 8 || min(uint64(c%countTabSlots), s.key8^key8|uint64(uint32(s.klen^klen))) != 0 {
		return false
	}
	s.key8, s.klen, s.c = key8, klen, c+1
	if c%countTabSlots == feedLine-1 {
		w.hot[w.nhot] = uint16(hash % countTabSlots)
		w.nhot++
	}
	return true
}

// countHit8 is countHit for the word loop, where every key the table has
// held is 8 bytes (the width guard): key8 is the whole key, so the compare
// has no key-length term. The slot still records klen 8, so slotKey and the
// drains read it as countHit's.
func (w *Writer) countHit8(key8, hash uint64) bool {
	s := &w.tab[hash%countTabSlots]
	c := max(s.c, w.floor)
	if min(uint64(c%countTabSlots), s.key8^key8) != 0 {
		return false
	}
	s.key8, s.klen, s.c = key8, 8, c+1
	if c%countTabSlots == feedLine-1 {
		w.hot[w.nhot] = uint16(hash % countTabSlots)
		w.nhot++
	}
	return true
}

// countKey adds one record to its key's exact count for the current
// stretch where countHit cannot: past other keys' slots, or for a long key.
// A short key's bytes are not read here; a drain rebuilds them from the
// slot for the few keys it feeds.
func (w *Writer) countKey(key []byte, key8 uint64, klen int32, hash uint64) {
	for i := hash % countTabSlots; ; i = (i + 1) % countTabSlots {
		s := &w.tab[i]
		if s.c <= w.floor {
			s.key8, s.klen, s.c = key8, klen, w.floor+1
			if klen > 8 {
				if w.long == nil {
					w.long = make([][]byte, countTabSlots)
				}
				w.long[i] = append(w.long[i][:0], key...)
			}
			return
		}
		if s.key8 == key8 && s.klen == klen && (klen <= 8 || bytes.Equal(w.long[i], key)) {
			s.c++
			if s.c%countTabSlots == feedLine {
				w.hot[w.nhot] = uint16(i)
				w.nhot++
			}
			return
		}
	}
}

// slotKey returns the bytes of the key counted in slot i: a long key's
// stored copy, or a short key's rebuilt from key8 into kb.
func (w *Writer) slotKey(i int, s *countSlot, kb *[8]byte) []byte {
	if s.klen > 8 {
		return w.long[i]
	}
	binary.LittleEndian.PutUint64(kb[:], s.key8)
	return kb[:s.klen]
}

// drainCounts closes a stretch: the m records counted since the last drain.
// Of the table's exact per-key counts it feeds the edge's count-min sketch,
// and offers to the heavy-key list, only the keys that took at least
// m/stretchFeedFraction of the stretch — at most stretchFeedFraction keys,
// whatever the stretch's cardinality — and then frees the table by raising
// its floor. A stretch that a tick closes is tickEvery records, and its keys
// over the line are the ones counting saw reach feedLine; only the shorter
// last stretch, closed by Close, takes a pass over the table.
func (w *Writer) drainCounts() {
	m := w.n - w.drained
	if m == 0 {
		return
	}
	w.drained = w.n
	var seen []sketch.HeavyKey // for drainSeen
	var kb [8]byte
	feed := func(i int) {
		s := &w.tab[i]
		n := uint64(s.c - w.floor)
		key := w.slotKey(i, s, &kb)
		w.noteHeavy(key, w.stats.CM.Add(key, n))
		w.feeds++
		if drainSeen != nil {
			seen = append(seen, sketch.HeavyKey{Key: bytes.Clone(key), Count: n})
		}
	}
	if m == tickEvery {
		for _, i := range w.hot[:w.nhot] {
			feed(int(i))
		}
	} else {
		for i := range w.tab {
			if c := w.tab[i].c; c > w.floor && uint64(c-w.floor)*stretchFeedFraction >= m {
				feed(i)
			}
		}
	}
	if drainSeen != nil {
		drainSeen(w, seen)
	}
	w.nhot = 0
	w.floor += countTabSlots
	if w.floor == 0 { // wrapped: every stamp is above it
		for i := range w.tab {
			w.tab[i].c = 0
		}
	}
}

// drainSeen, when set, sees every drain that closes a stretch, with the
// keys it fed and their counts in the stretch; w.drained is where the
// stretch ended. Only tests set it.
var drainSeen func(w *Writer, fed []sketch.HeavyKey)
