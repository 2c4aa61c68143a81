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

// expand lowers an operator that emits any number of records per input
// record — each emits those of one — into a buffer the kernel owns, handed
// to next once per input vector and whenever it passes maxVector.
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

// joinTable is a join's build side: every build record in one slice,
// grouped by join key in build order, under an open-addressed index from
// key to its run. A probe is one multiplicative hash, a short linear scan
// of 16-byte slots and a subslice — no per-key slice header to chase, and
// a skewed probe stream's hot keys keep their few slots and rows in cache.
type joinTable[L any] struct {
	rows  []L
	slots []tableSlot // power-of-two sized, at most half full
	shift uint        // 64 - log2(len(slots))
}

// tableHashMul is the table's multiplicative (Fibonacci) hash: 2^64/φ.
const tableHashMul = 0x9E3779B97F4A7C15

// tableSlot maps key to rows[start : start+count]; count 0 marks a free
// slot, so key 0 needs no sentinel.
type tableSlot struct {
	key          uint64
	start, count uint32
}

// newJoinTable builds the table in two passes over rows: count each key's
// records, then place every record in its key's run, last record first so a
// run fills from its end and reads in build order.
func newJoinTable[L any](rows []L, key func(L) uint64) (*joinTable[L], error) {
	if len(rows) > 1<<31-1 {
		return nil, fmt.Errorf("plan: join build side holds %d records, a table at most 2^31-1", len(rows))
	}
	size := 1 << bits.Len(uint(max(2*len(rows), 1)-1))
	t := &joinTable[L]{rows: make([]L, len(rows)), slots: make([]tableSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	keys := make([]uint64, len(rows))
	for i, r := range rows {
		keys[i] = key(r)
		s := t.slot(keys[i])
		s.key = keys[i]
		s.count++
	}
	var end uint32
	for i := range t.slots {
		end += t.slots[i].count
		t.slots[i].start = end
	}
	for i := len(rows) - 1; i >= 0; i-- {
		s := t.slot(keys[i])
		s.start--
		t.rows[s.start] = rows[i]
	}
	return t, nil
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
