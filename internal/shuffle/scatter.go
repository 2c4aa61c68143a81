package shuffle

import "repro/internal/chunk"

// scatterBlock is how many records of a WriteBatch are routed and grouped
// at a time: the per-leaf index lists stay 16 KB however large the batch.
const scatterBlock = 4096

// A Scatter is the one path from typed records to the leaf bags of a
// shuffle edge: route a record through the Writer, append it to the
// encoder of the leaf it routed to, and hand each chunk an encoder cuts to
// Writer.InsertBatchChunk. The typed PartitionedWriter is a Scatter[T], a
// compiled plan's edge sink is a Scatter of the stage's output record type,
// and Writer.Write is a Scatter[[]byte]. Write is the one-record view —
// route and count the key now, hand the record to its leaf's encoder — and
// WriteBatch the same path in blocks, through the encoders' AppendRows.
// When and how a leaf encodes is the encoder's business (chunk.Encoder: the
// layout follows the codec, and a codec with a bulk view is encoded a block
// of Appends at a time, from copies of the records); the Scatter never
// asks. It owns one encoder per leaf it has routed to and belongs to one
// producer goroutine, like its Writer.
type Scatter[T any] struct {
	w      *Writer
	codec  chunk.Codec[T]
	key    func(T) []byte
	keyU64 func(T) uint64 // optional: route on key words, not bytes

	// Base partitions — the overwhelmingly common routing outcome — index
	// a dense slice; isolation refs take the map (a struct-keyed map lookup
	// per record is measurable).
	base  []*scatterLeaf[T]
	other map[RouteRef]*scatterLeaf[T]

	touched []*scatterLeaf[T] // leaves the current WriteBatch block has rows for
}

// scatterLeaf is one leaf's encoder and, during a WriteBatch block, the
// block's row indices routed to it.
type scatterLeaf[T any] struct {
	enc *chunk.Encoder[T]
	idx []int32
}

// NewScatter returns a Scatter writing codec's values to w's edge, keyed by
// key (nil when KeyUint64 supplies the key).
func NewScatter[T any](w *Writer, codec chunk.Codec[T], key func(T) []byte) *Scatter[T] {
	return &Scatter[T]{w: w, codec: codec, key: key}
}

// KeyUint64 makes the scatter route on uint64 key words: key must agree
// with the byte key under the Uint64Key convention (8 bytes little-endian),
// so placement is unchanged and only the byte round trip goes.
func (s *Scatter[T]) KeyUint64(key func(T) uint64) { s.keyU64 = key }

// Write routes one record and appends it to its leaf's open chunk.
func (s *Scatter[T]) Write(v T) error {
	var ref RouteRef
	if s.keyU64 != nil {
		ref = s.w.RouteUint64(s.keyU64(v))
	} else {
		ref = s.w.RouteKey(s.key(v))
	}
	return s.leaf(ref).enc.Append(v)
}

// WriteBatch routes vs and appends each leaf's rows, in stream order, with
// one AppendRows per leaf per block. A block is routed, counted and grouped
// in one pass: each record takes the writer's step, inline — a tick inside
// a block comes before the next record, and the count probes once — and
// its index goes to its leaf.
func (s *Scatter[T]) WriteBatch(vs []T) error {
	w := s.w
	for len(vs) > 0 {
		blk := vs[:min(len(vs), scatterBlock)]
		vs = vs[len(blk):]
		for i := range blk {
			key, key8, klen, hash := []byte(nil), uint64(0), int32(8), uint64(0)
			if s.keyU64 != nil {
				key8 = s.keyU64(blk[i])
				hash = KeyHashUint64(key8)
			} else {
				key = s.key(blk[i])
				key8, klen, hash = slotKey8(key), int32(len(key)), KeyHash(key)
			}
			// Writer.step, without a call.
			if w.n%tickEvery == 0 {
				w.tick()
			}
			ref := RouteRef{Iso: -1, Part: w.routePlain(hash)}
			if !w.plain {
				ref = w.routeIsolated(hash)
			}
			if !w.countHit(key8, klen, hash) {
				w.countKey(key, key8, klen, hash)
			}
			w.n++
			var l *scatterLeaf[T]
			if ref.Iso < 0 && ref.Part < len(s.base) {
				l = s.base[ref.Part] // the common case, without a call
			}
			if l == nil {
				l = s.leaf(ref)
			}
			if len(l.idx) == 0 {
				s.touched = append(s.touched, l)
			}
			l.idx = append(l.idx, int32(i))
		}
		var firstErr error
		for _, l := range s.touched {
			if firstErr == nil {
				firstErr = l.enc.AppendRows(blk, l.idx)
			}
			l.idx = l.idx[:0]
		}
		s.touched = s.touched[:0]
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// leaf returns the leaf ref addresses, opening it on first use.
func (s *Scatter[T]) leaf(ref RouteRef) *scatterLeaf[T] {
	dense := ref.Iso < 0
	if dense && ref.Part < len(s.base) && s.base[ref.Part] != nil {
		return s.base[ref.Part]
	}
	if l := s.other[ref]; l != nil {
		return l
	}
	l := &scatterLeaf[T]{enc: chunk.NewEncoder(s.codec, s.w.cfg.Store.ChunkSize(), func(c chunk.Chunk, rows int) error {
		return s.w.InsertBatchChunk(ref, c, rows)
	})}
	if dense {
		for ref.Part >= len(s.base) {
			s.base = append(s.base, nil)
		}
		s.base[ref.Part] = l
		return l
	}
	if s.other == nil {
		s.other = make(map[RouteRef]*scatterLeaf[T])
	}
	s.other[ref] = l
	return l
}

// flush closes every leaf encoder, handing their open chunks to the writer.
func (s *Scatter[T]) flush() error {
	var firstErr error
	for _, l := range s.other {
		s.base = append(s.base, l)
	}
	for _, l := range s.base {
		if l == nil {
			continue
		}
		if err := l.enc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.base, s.other = nil, nil
	return firstErr
}

// Close flushes the leaf encoders, then closes the writer — in that order,
// so the last chunks reach the inserters before they shut down and the
// final exchange carries their counts. Register it as the task's finish
// hook.
func (s *Scatter[T]) Close() error {
	err := s.flush()
	if cerr := s.w.Close(); err == nil {
		err = cerr
	}
	return err
}
