package plan

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bag"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/shuffle"
)

// maxVector bounds the buffer of an operator that emits several records
// per input record: past it the operator hands on what it has before it
// takes more input, so a probe vector of a heavy many-to-many join key
// never materializes all its matches at once.
const maxVector = 1 << 14

// kernel is one operator wired into one worker's stage.
type kernel struct {
	// in is the operator's func([]T) error over its input record type. The
	// vector it is handed is valid for the call only; what it hands
	// downstream is that vector compacted in place or a buffer the kernel
	// owns, valid until the kernel's next call — so every buffer on the
	// record path belongs to one worker: the decoder's vector, each
	// kernel's output, the encoder's open chunk.
	in any
	// finish, when set, hands downstream what the operator held back —
	// aggregates, the top k — once its input is exhausted.
	finish func() error
}

// chunkSource yields a read stream's chunks until bag.ErrEmpty.
type chunkSource func() (chunk.Chunk, error)

// records is a node's record type as the stage loop sees it. Every `any`
// here is a func([]T) error of that type.
type records interface {
	// read decodes every chunk of src through a decoder of its own and
	// hands down the vector, which is reused between calls.
	read(src chunkSource, down any) error
	// sink opens the worker's output 0 for these records: through one
	// encoder for a plain bag, through a scatter (an encoder per leaf)
	// routing by edgeKey, a func(T) uint64, for a shuffle edge. Either way
	// the chunks take the codec's layout, and a record is encoded when
	// written, never kept.
	sink(tc *core.TaskCtx, edgeKey any) (any, error)
}

type recs[T any] struct{ codec chunk.Codec[T] }

func recsOf[T any](codec chunk.Codec[T]) records {
	if codec == nil {
		return nil // Validate: "has no codec"
	}
	return recs[T]{codec}
}

func (r recs[T]) read(src chunkSource, down any) error {
	next, d := down.(func([]T) error), chunk.NewDecoder(r.codec)
	var vec []T
	for {
		c, err := src()
		if err == bag.ErrEmpty {
			return nil
		}
		if err != nil {
			return err
		}
		if vec, err = d.Decode(c, vec[:0]); err != nil {
			return err
		}
		if err := next(vec); err != nil {
			return err
		}
	}
}

// readAll decodes every chunk of src into one vector the caller owns,
// allocated once at the chunks' record count: a join's build side, which
// becomes its table. It holds every chunk until all are counted; a table
// of records with byte-slice fields, which alias their chunks, holds them
// all anyway.
func (r recs[T]) readAll(src chunkSource) ([]T, error) {
	var cs []chunk.Chunk
	n := 0
	for {
		c, err := src()
		if err == bag.ErrEmpty {
			break
		}
		if err != nil {
			return nil, err
		}
		k, err := chunk.Count(c)
		if err != nil {
			return nil, err
		}
		// A record takes at least a byte of its chunk, so a corrupt
		// count costs no more than the chunk; Decode reports it.
		cs, n = append(cs, c), n+min(k, len(c))
	}
	d, all := chunk.NewDecoder(r.codec), make([]T, 0, n)
	for _, c := range cs {
		var err error
		if all, err = d.Decode(c, all); err != nil {
			return nil, err
		}
	}
	return all, nil
}

func (r recs[T]) sink(tc *core.TaskCtx, edgeKey any) (any, error) {
	if edgeKey == nil {
		enc := chunk.NewEncoder(r.codec, tc.Store().ChunkSize(), func(c chunk.Chunk, _ int) error { return tc.Insert(0, c) })
		tc.OnFinish(enc.Close)
		return func(vec []T) error { return enc.AppendRows(vec, nil) }, nil
	}
	w := tc.ShuffleWriter(0)
	if w == nil {
		return nil, fmt.Errorf("output %q is not partitioned", tc.OutputName(0))
	}
	sc := shuffle.NewScatter(w, r.codec, nil)
	sc.KeyUint64(edgeKey.(func(T) uint64))
	tc.OnFinish(sc.Close)
	return sc.WriteBatch, nil
}

// expand lowers FlatMap, which emits any number of records per input
// record — each emits those of one — into a buffer the kernel owns, handed
// to next once per input vector and whenever it passes maxVector. Join
// runs the same loop inline, with its probe in the loop body.
func expand[T, U any](next func([]U) error, each func(v T, emit func(U) error) error) func([]T) error {
	var buf []U
	emit := func(u U) error {
		buf = append(buf, u)
		return nil
	}
	return func(vec []T) error {
		buf = buf[:0]
		for _, v := range vec {
			if err := each(v, emit); err != nil {
				return err
			}
			if len(buf) >= maxVector {
				if err := next(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return next(buf)
	}
}

// groups holds one accumulator per key, as the partial records a GroupBy
// emits.
type groups[A any] struct {
	slot     map[uint64]int
	partials []chunk.Pair[uint64, A]
}

// acc returns key k's accumulator, valid until the next call, and whether
// the key is new (its accumulator still zero).
func (g *groups[A]) acc(k uint64) (acc *A, fresh bool) {
	i, ok := g.slot[k]
	if !ok {
		if g.slot == nil {
			g.slot = make(map[uint64]int)
		}
		i = len(g.partials)
		g.slot[k] = i
		g.partials = append(g.partials, chunk.Pair[uint64, A]{First: k})
	}
	return &g.partials[i].Second, !ok
}

// sorted returns one partial per key, in key order.
func (g *groups[A]) sorted() []chunk.Pair[uint64, A] {
	slices.SortFunc(g.partials, func(a, b chunk.Pair[uint64, A]) int { return cmp.Compare(a.First, b.First) })
	return g.partials
}

// joinTable is a join's build side: every build record in one slice, in
// one of three layouts. Dense — no key repeats and the keys span fewer
// than twice as many values as there are records — is a key-ordered copy,
// key k's record at rows[k-base], behind a bitmap of the keys present: a
// probe is a subtract, a bounds check and a bit test, and a skewed probe
// stream's hot keys, if they are near each other, share cache lines.
// Otherwise records are grouped by key under an open-addressed index from
// key to its run, in place when no key repeats: a probe is one
// multiplicative hash, a short linear scan of 16-byte slots and a
// subslice — no per-key slice header to chase.
type joinTable[L any] struct {
	rows    []L         // the build vector itself when no key repeats and the keys are sparse
	slots   []tableSlot // hashed: power-of-two sized, at most half full
	shift   uint        // hashed: 64 - log2(len(slots))
	base    uint64      // dense: the least key
	present []uint64    // dense: bit k-base set when key k has a record; nil when hashed
}

// tableHashMul is the table's multiplicative (Fibonacci) hash: 2^64/φ.
const tableHashMul = 0x9E3779B97F4A7C15

// tableSlot maps key to rows[start : start+count]; count 0 marks a free
// slot, so key 0 needs no sentinel.
type tableSlot struct {
	key          uint64
	start, count uint32
}

// newJoinTable indexes rows by key, taking ownership of rows. A dense
// build is copied in key order (newDenseTable). Otherwise one pass counts
// each key's records, pointing a new key's slot at its record. If no key
// repeats — a primary key, a sparse id — that is the table: rows stay
// where they are, one per slot. Otherwise a prefix sum over the slots and
// a second pass place every record in its key's run of a permuted copy,
// last record first, so a run fills from its end and reads in build order.
func newJoinTable[L any](rows []L, key func(L) uint64) (*joinTable[L], error) {
	if len(rows) > 1<<31-1 {
		return nil, fmt.Errorf("plan: join build side holds %d records, a table at most 2^31-1", len(rows))
	}
	if t := newDenseTable(rows, key); t != nil {
		return t, nil
	}
	size := 1 << bits.Len(uint(max(2*len(rows), 1)-1))
	t := &joinTable[L]{rows: rows, slots: make([]tableSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	unique := true
	for i, r := range rows {
		k := key(r)
		s := t.slot(k)
		if s.count == 0 {
			*s = tableSlot{key: k, start: uint32(i), count: 1}
		} else {
			unique = false
			s.count++
		}
	}
	if unique {
		return t, nil
	}
	var end uint32
	for i := range t.slots {
		end += t.slots[i].count
		t.slots[i].start = end
	}
	t.rows = make([]L, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		s := t.slot(key(rows[i]))
		s.start--
		t.rows[s.start] = rows[i]
	}
	return t, nil
}

// newDenseTable returns the dense table of rows, or nil if they have none:
// if there are none, if the keys span 2·len(rows) values or more, or if a
// key repeats. The first and last keys lie in the span, so two keys far
// apart give up before anything is allocated. Otherwise every key of a
// dense build lies within 2·len(rows) of the first: one pass marks each
// in a bitmap of the 4·len(rows) keys around it and gives up at a key
// outside it or at a repeat, so a build that is not dense has paid
// len(rows)/2 bytes, not the row copy. The first and last marks are the
// least and greatest keys, unless the marks wrap past 2^64; shifted down
// to the least key, they are the table's bitmap.
func newDenseTable[L any](rows []L, key func(L) uint64) *joinTable[L] {
	n := uint64(len(rows))
	if n == 0 {
		return nil
	}
	first, last := key(rows[0]), key(rows[n-1])
	if max(first, last)-min(first, last) >= 2*n {
		return nil
	}
	from := first - 2*n
	marks := make([]uint64, (4*n+63)/64)
	for _, r := range rows {
		i := key(r) - from
		if i >= 4*n || marks[i/64]&(1<<(i%64)) != 0 {
			return nil
		}
		marks[i/64] |= 1 << (i % 64)
	}
	a, z := 0, len(marks)-1 // the words of the first and last marks
	for marks[a] == 0 {
		a++
	}
	for marks[z] == 0 {
		z--
	}
	lo := from + uint64(a*64+bits.TrailingZeros64(marks[a]))
	hi := from + uint64(z*64+bits.Len64(marks[z])-1)
	span := hi - lo
	if lo > hi || span >= 2*n { // keys on both sides of 2^64, or 2n apart within the marks
		return nil
	}
	w, shift := (lo-from)/64, (lo-from)%64
	present := marks[:(span+64)/64]
	for j := range present {
		word := marks[w] >> shift
		if w++; w < uint64(len(marks)) {
			word |= marks[w] << (64 - shift)
		}
		present[j] = word
	}
	dense := make([]L, span+1)
	for _, r := range rows {
		dense[key(r)-lo] = r
	}
	return &joinTable[L]{rows: dense, base: lo, present: present}
}

// at returns where key's record lies in a dense table's rows, and whether
// it has one. A key below base wraps far past len(rows).
func (t *joinTable[L]) at(key uint64) (uint64, bool) {
	i := key - t.base
	return i, i < uint64(len(t.rows)) && t.present[i/64]&(1<<(i%64)) != 0
}

// slot returns key's slot, or the free slot it would take.
func (t *joinTable[L]) slot(key uint64) *tableSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (key * tableHashMul) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.count == 0 || s.key == key {
			return s
		}
	}
}

// lookup returns the build records of key, in build order.
func (t *joinTable[L]) lookup(key uint64) []L {
	s := t.slot(key)
	return t.rows[s.start : s.start+s.count]
}
