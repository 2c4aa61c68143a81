package shuffle

import (
	"bytes"
	"encoding/binary"

	"repro/internal/chunk"
)

// Batch-at-a-time producer path. The typed scatter layer (hurricane
// package) computes the routing vector for a whole batch in one pass,
// appends each row into a per-partition batch builder, and hands the
// encoded batch chunks back through InsertBatchChunk — so the per-record
// work drops to one route computation and a few column appends, with the
// sketch fed once per batch and the control exchange checked once per
// batch instead of amortized per record.

// PartitionBatch computes the routing vector for a batch of n records in
// one pass. The partition map is fixed for the batch (the control exchange
// runs, if due, before the first record is routed), and the per-key counts
// of the whole batch are fed to the edge's count-min sketch in bulk — exact
// counts per distinct key, not the 1-in-N sampling of the row path. The
// returned slice is reused by the next call.
func (w *Writer) PartitionBatch(n int, key func(i int) []byte) []RouteRef {
	w.exchangeIfDue()
	if cap(w.refs) < n {
		w.refs = make([]RouteRef, n)
	}
	w.refs = w.refs[:n]
	// The partition map is fixed for the whole batch, so the routing
	// shape checks (default partitioner? any isolations or splits?) hoist
	// out of the record loop; the common case reduces to hash-mod-base.
	_, defaultPart := w.cfg.Partitioner.(HashPartitioner)
	if plain := defaultPart && len(w.pm.Isolated) == 0 && len(w.pm.Splits) == 0; plain {
		base := uint64(w.pm.Base)
		if base&(base-1) == 0 {
			// Power-of-two partition counts (the common configuration)
			// route with a mask; the 64-bit divide is otherwise the single
			// largest instruction in this loop.
			mask := base - 1
			for i := 0; i < n; i++ {
				k := key(i)
				h := KeyHash(k)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h & mask), Sub: -1}
				w.countBatchKey(k, h)
			}
		} else {
			for i := 0; i < n; i++ {
				k := key(i)
				h := KeyHash(k)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h % base), Sub: -1}
				w.countBatchKey(k, h)
			}
		}
		w.rr += n
	} else {
		for i := 0; i < n; i++ {
			k := key(i)
			h := KeyHash(k)
			w.refs[i] = w.pm.routeRefHashed(w.cfg.Partitioner, k, h, w.rr)
			w.rr++
			w.countBatchKey(k, h)
		}
	}
	w.n += uint64(n)
	w.drainBatchCounts()
	return w.refs
}

// PartitionBatchUint64 is PartitionBatch for uint64 keys, identified by
// their 8-byte little-endian encoding (the Uint64Key convention). Routing
// and counting work on the words directly — KeyHashUint64 agrees with
// KeyHash over the encoding, so the placement is identical to the generic
// path — and key bytes materialize only once per distinct key per batch,
// when a count slot is first claimed.
func (w *Writer) PartitionBatchUint64(keys []uint64) []RouteRef {
	n := len(keys)
	w.exchangeIfDue()
	if cap(w.refs) < n {
		w.refs = make([]RouteRef, n)
	}
	w.refs = w.refs[:n]
	_, defaultPart := w.cfg.Partitioner.(HashPartitioner)
	if plain := defaultPart && len(w.pm.Isolated) == 0 && len(w.pm.Splits) == 0; plain {
		base := uint64(w.pm.Base)
		if base&(base-1) == 0 {
			mask := base - 1
			for i, v := range keys {
				h := KeyHashUint64(v)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h & mask), Sub: -1}
				w.countBatchKeyUint64(v, h)
			}
		} else {
			for i, v := range keys {
				h := KeyHashUint64(v)
				w.refs[i] = RouteRef{Iso: -1, Part: int(h % base), Sub: -1}
				w.countBatchKeyUint64(v, h)
			}
		}
		w.rr += n
	} else {
		var kb [8]byte
		for i, v := range keys {
			binary.LittleEndian.PutUint64(kb[:], v)
			h := KeyHashUint64(v)
			w.refs[i] = w.pm.routeRefHashed(w.cfg.Partitioner, kb[:], h, w.rr)
			w.rr++
			w.countBatchKeyUint64(v, h)
		}
	}
	w.n += uint64(n)
	w.drainBatchCounts()
	return w.refs
}

// batchTabSlots sizes the per-batch count table. Power of two; holds up
// to batchTabSlots/2 distinct keys before an early drain. Typical batch
// key cardinality is far below this, so the steady state is one drain
// per batch with zero allocations.
const batchTabSlots = 512

// batchSlot is one entry of the per-batch key count table. n doubles as
// the occupancy marker (occupied slots always count at least one
// record); key storage is reused across batches. key8 holds the first
// min(len,8) key bytes inline (little-endian, zero-padded): for keys of
// at most 8 bytes — the common case, e.g. Uint64Key — the equality check
// is three register compares with no pointer chase into the stored copy.
type batchSlot struct {
	hash uint64
	n    uint64
	key8 uint64
	klen int32
	key  []byte
}

// slotKey8 packs key's first bytes for batchSlot.key8.
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

// countBatchKey adds one record to the batch's per-key count, reusing the
// routing hash instead of re-hashing through the runtime map. The open
// table replaces a map[string]uint64 whose per-record assign (string
// hashing plus bucket walk) dominated the batch routing profile.
func (w *Writer) countBatchKey(key []byte, hash uint64) {
	// Skewed streams repeat keys on consecutive records; the previous
	// record's slot resolves those with one compare, no table probe.
	if s := w.lastSlot; s != nil && w.lastHash == hash &&
		s.key8 == slotKey8(key) && s.klen == int32(len(key)) &&
		(len(key) <= 8 || bytes.Equal(s.key, key)) {
		s.n++
		return
	}
	if w.batchTab == nil {
		w.batchTab = make([]batchSlot, batchTabSlots)
	}
	if len(w.batchLive) >= batchTabSlots/2 {
		// High key cardinality: feed the sketch early and reuse the
		// table. Count-min adds accumulate, so splitting one batch's
		// feed into several keeps the counts exact.
		w.drainBatchCounts()
	}
	k8 := slotKey8(key)
	for i := hash & (batchTabSlots - 1); ; i = (i + 1) & (batchTabSlots - 1) {
		s := &w.batchTab[i]
		if s.n == 0 {
			s.hash = hash
			s.key8 = k8
			s.klen = int32(len(key))
			s.key = append(s.key[:0], key...)
			s.n = 1
			w.batchLive = append(w.batchLive, int32(i))
			w.lastSlot, w.lastHash = s, hash
			return
		}
		if s.hash == hash && s.key8 == k8 && s.klen == int32(len(key)) &&
			(len(key) <= 8 || bytes.Equal(s.key, key)) {
			s.n++
			w.lastSlot, w.lastHash = s, hash
			return
		}
	}
}

// countBatchKeyUint64 is countBatchKey for a uint64 key: the word IS the
// whole key (key8 == v, klen == 8), so the equality check never touches
// the stored byte copy, which exists only for the sketch drain.
func (w *Writer) countBatchKeyUint64(v, hash uint64) {
	if s := w.lastSlot; s != nil && s.key8 == v && s.klen == 8 {
		s.n++
		return
	}
	if w.batchTab == nil {
		w.batchTab = make([]batchSlot, batchTabSlots)
	}
	if len(w.batchLive) >= batchTabSlots/2 {
		w.drainBatchCounts()
	}
	for i := hash & (batchTabSlots - 1); ; i = (i + 1) & (batchTabSlots - 1) {
		s := &w.batchTab[i]
		if s.n == 0 {
			s.hash = hash
			s.key8 = v
			s.klen = 8
			s.key = binary.LittleEndian.AppendUint64(s.key[:0], v)
			s.n = 1
			w.batchLive = append(w.batchLive, int32(i))
			w.lastSlot, w.lastHash = s, hash
			return
		}
		if s.hash == hash && s.key8 == v && s.klen == 8 {
			s.n++
			w.lastSlot, w.lastHash = s, hash
			return
		}
	}
}

// drainBatchCounts feeds the accumulated per-key counts to the edge's
// count-min sketch — exact counts per distinct key, not the 1-in-N
// sampling of the row path — and resets the table for the next batch.
func (w *Writer) drainBatchCounts() {
	for _, i := range w.batchLive {
		s := &w.batchTab[i]
		w.stats.CM.Add(s.key, s.n)
		w.noteHeavy(s.key)
		s.n = 0
	}
	w.batchLive = w.batchLive[:0]
	w.lastSlot = nil
}

// InsertBatchChunk inserts one encoded batch chunk for the given routing
// decision. The rows count feeds the leaf's exact record counter (the
// master's primary load signal), so batch and row producers are
// indistinguishable to the control plane.
func (w *Writer) InsertBatchChunk(ref RouteRef, c chunk.Chunk, rows int) error {
	out := w.outs[ref]
	if out == nil {
		out = w.newLeaf(ref)
	}
	if err := out.ins.Insert(c); err != nil {
		return err
	}
	out.count += uint64(rows)
	w.bytes += uint64(len(c))
	w.batches++
	return nil
}
