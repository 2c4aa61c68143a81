package shuffle

import (
	"encoding/binary"

	"repro/internal/chunk"
)

// scatterBlock is how many records are routed and grouped at a time — a
// WriteBatch's, or as many of Write's as a scatter stages: the per-leaf
// index lists stay 16 KB however large the batch.
const scatterBlock = 4096

// A Scatter is the one path from typed records to the leaf bags of a
// shuffle edge: route a record through the Writer, append it to the
// encoder of the leaf it routed to, and hand each chunk an encoder cuts to
// Writer.InsertBatchChunk. The typed PartitionedWriter is a Scatter[T], a
// compiled plan's edge sink is a Scatter of the stage's output record type,
// and Writer.Write is a Scatter[[]byte]. WriteBatch routes, counts and
// groups a block of records in one pass and hands each leaf its rows with
// one AppendRows. Write is the one-record view of the same path: when the
// codec has a bulk view, so that its values own everything they encode
// (the rule by which chunk.Encoder defers an Append), Write stages a copy
// of the record and a full block of them takes WriteBatch's path — as do
// the staged records ahead of any WriteBatch and of Close, so the stream
// keeps its order; a staged record's key is read when its block is routed.
// Otherwise a record's value may alias memory its caller
// reuses as soon as Write returns (a codec with a blob column, the raw
// Writer.Write), and Write routes and counts it at the call and hands it to
// its leaf's encoder. Either way the chunks, their cuts and the edge's
// statistics are those of one WriteBatch over the whole stream. When and
// how a leaf encodes is the encoder's business (chunk.Encoder); the
// Scatter never asks. It owns one encoder per leaf it has routed to and
// belongs to one producer goroutine, like its Writer; once its writer is
// closed, writes return chunk.ErrClosed.
type Scatter[T any] struct {
	w      *Writer
	codec  chunk.Codec[T]
	key    func(T) []byte
	keyU64 func(T) uint64 // optional: route on key words, not bytes

	staged bool // Write stages its records (the codec's values own what they encode)
	stage  []T  // Write's records not yet routed (none past a Write that does not stage); nil after Close
	room   int  // the stage's length at which Write calls write: scatterBlock while it is open, else 0

	// Base partitions — the overwhelmingly common routing outcome — index
	// a dense slice; isolation refs take the map (a struct-keyed map lookup
	// per record is measurable).
	base  []*scatterLeaf[T]
	other map[RouteRef]*scatterLeaf[T]
	dense bool // base holds every base partition's leaf (baseLeaves)

	words   []uint64          // the word loop's key words for the current block (keyWords)
	touched []*scatterLeaf[T] // leaves the current block has rows for
}

// scatterLeaf is one leaf's encoder and, during a block, the block's row
// indices routed to it.
type scatterLeaf[T any] struct {
	enc *chunk.Encoder[T]
	idx []int32
}

// NewScatter returns a Scatter writing codec's values to w's edge, keyed by
// key (nil when KeyUint64 supplies the key). Write stages the values of a
// codec with a bulk view: they own everything they encode.
func NewScatter[T any](w *Writer, codec chunk.Codec[T], key func(T) []byte) *Scatter[T] {
	cc, _ := chunk.ColumnarOf(codec)
	_, staged := chunk.BulkOf(cc)
	return &Scatter[T]{w: w, codec: codec, key: key, staged: staged}
}

// KeyUint64 makes the scatter route on uint64 key words: a word stands for
// its 8 little-endian bytes, so placement, key counts and chunks are those
// of the byte key that writes them, read by the same word loop, with no
// byte round trip.
func (s *Scatter[T]) KeyUint64(key func(T) uint64) { s.keyU64 = key }

// Write adds one record to the stream: staged for the next block, or
// routed now and appended to its leaf's open chunk. It appends the record
// to the stage before anything else: while the open stage has room, that
// bounded append is all a Write does, small enough to inline into its
// caller. write takes the rest.
func (s *Scatter[T]) Write(v T) error {
	s.stage = append(s.stage, v)
	if len(s.stage) < s.room {
		return nil
	}
	return s.write()
}

// write takes the record Write has just appended: the last of a block,
// which routes the block; or one that finds no stage open — the first
// Write, which opens it; one after Close; and every record of a codec that
// does not stage, routed at the call.
func (s *Scatter[T]) write() error {
	if s.room > 0 {
		return s.writeStage()
	}
	v := s.stage[len(s.stage)-1]
	s.stage = s.stage[:len(s.stage)-1]
	if s.w.closed {
		return chunk.ErrClosed
	}
	if s.staged {
		s.stage = append(make([]T, 0, scatterBlock), v)
		s.room = scatterBlock
		return nil
	}
	var ref RouteRef
	if s.keyU64 != nil {
		ref = s.w.RouteUint64(s.keyU64(v))
	} else {
		ref = s.w.RouteKey(s.key(v))
	}
	return s.leaf(ref).enc.Append(v)
}

// WriteBatch adds vs to the stream, after any records Write has staged.
func (s *Scatter[T]) WriteBatch(vs []T) error {
	if s.w.closed {
		return chunk.ErrClosed
	}
	if err := s.writeStage(); err != nil {
		return err
	}
	return s.writeBlocks(vs)
}

// writeStage writes the records Write has staged, as one block.
func (s *Scatter[T]) writeStage() error {
	blk := s.stage
	s.stage = s.stage[:0]
	return s.writeBlocks(blk)
}

// writeBlocks routes vs and appends each leaf's rows, in stream order, with
// one AppendRows per leaf per block. A block is routed, counted and grouped
// in one pass, by one of the writer's two loops (route.go), chosen once per
// block by the width of its keys: the word loop when the map is plain, every
// key the writer has routed was 8 bytes, and so is every key of the block
// (keyWords), else the general loop. Either way a tick inside a block comes
// before the block's next record.
func (s *Scatter[T]) writeBlocks(vs []T) error {
	for len(vs) > 0 {
		blk := vs[:min(len(vs), scatterBlock)]
		vs = vs[len(blk):]
		if s.w.words() && s.keyWords(blk) {
			s.groupWords()
		} else {
			s.group(blk)
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

// keyWords is the word loop's pre-pass: it reads the key word of every
// record of blk into s.words — a uint64 key as it is, a byte key as its 8
// bytes little-endian, the word KeyHashUint64 hashes as KeyHash does the
// bytes — or, at the first byte key that is not 8 bytes long, reports false
// before anything of the block is counted, and the general loop takes it.
func (s *Scatter[T]) keyWords(blk []T) bool {
	if s.words == nil {
		s.words = make([]uint64, scatterBlock)
	}
	s.words = s.words[:len(blk)]
	words := s.words
	if word := s.keyU64; word != nil {
		for i := range words {
			words[i] = word(blk[i])
		}
		return true
	}
	key := s.key
	for i := range words {
		k := key(blk[i])
		if len(k) != 8 {
			return false
		}
		words[i] = binary.LittleEndian.Uint64(k)
	}
	return true
}

// group is the general loop over one block: each record takes the
// writer's step, inline — the count probes once — and its index goes to
// its leaf, listed in touched as it is first routed to.
func (s *Scatter[T]) group(blk []T) {
	w := s.w
	for i := range blk {
		key, key8, klen, hash := []byte(nil), uint64(0), int32(8), uint64(0)
		if s.keyU64 != nil {
			key8 = s.keyU64(blk[i])
			hash = KeyHashUint64(key8)
		} else {
			key = s.key(blk[i])
			key8, klen, hash = slotKey8(key), int32(len(key)), KeyHash(key)
			if klen != 8 {
				w.otherWidth = true // before the key is counted
			}
		}
		// Writer.step, without a call.
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
}

// groupWords is the word loop over the block keyWords read: per record,
// the key word's hash, its 8-byte count and its base partition's leaf, from
// a dense table of every base partition's leaf. It ticks at stretch ends
// only, between runs, and lists the touched leaves after the block.
func (s *Scatter[T]) groupWords() {
	w, leaves, words := s.w, s.baseLeaves(), s.words
	for lo := 0; lo < len(words); {
		hi := lo + w.stretchRoom(len(words)-lo)
		for i := lo; i < hi; i++ {
			key8 := words[i]
			hash := KeyHashUint64(key8)
			if !w.countHit8(key8, hash) {
				w.countKey(nil, key8, 8, hash)
			}
			l := leaves[w.routePlain(hash)]
			l.idx = append(l.idx, int32(i))
		}
		w.n += uint64(hi - lo)
		lo = hi
	}
	for _, l := range leaves {
		if len(l.idx) > 0 {
			s.touched = append(s.touched, l)
		}
	}
}

// baseLeaves returns the leaf of every base partition, by index: the word
// loop's routing table, opened whole at its first block. An encoder no
// record reaches cuts no chunk.
func (s *Scatter[T]) baseLeaves() []*scatterLeaf[T] {
	if !s.dense {
		for p := range int(s.w.base) {
			s.leaf(RouteRef{Iso: -1, Part: p})
		}
		s.dense = true
	}
	return s.base
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

// flush writes the staged records, then closes every leaf encoder, handing
// their open chunks to the writer.
func (s *Scatter[T]) flush() error {
	firstErr := s.writeStage()
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
	s.base, s.other, s.dense, s.stage, s.room = nil, nil, false, nil, 0
	return firstErr
}

// Close flushes the leaf encoders, then closes the writer — in that order,
// so the last chunks reach the inserters before they shut down and the
// writer's Stats count them. Register it as the task's finish hook.
// Closing a scatter whose writer is closed does nothing.
func (s *Scatter[T]) Close() error {
	if s.w.closed {
		return nil
	}
	err := s.flush()
	if cerr := s.w.Close(); err == nil {
		err = cerr
	}
	return err
}
