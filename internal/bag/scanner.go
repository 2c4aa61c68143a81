package bag

import (
	"context"

	"repro/internal/chunk"
	"repro/internal/transport"
)

// Scanner reads a bag's chunks without consuming them, maintaining its own
// per-slot cursor. The application master uses scanners to monitor the
// done work bag incrementally and to replay it in full after a master
// crash (§4.4: "replaying the done work bag involves rereading the entire
// bag"). Multiple scanners over one bag are independent, which is also how
// several workers can read an entire bag concurrently (§4.3).
type Scanner struct {
	store  *Store
	name   string
	cursor []int64  // per-slot next chunk index
	slots  []string // per-slot bag keys
	slot   int      // round-robin position
}

// Scanner returns a new scanner positioned at the start of the bag.
func (s *Store) Scanner(name string) *Scanner {
	m := s.NumSlots()
	return &Scanner{
		store:  s,
		name:   name,
		cursor: make([]int64, m),
		slots:  slotBags(name, m),
	}
}

// Next returns the next unscanned chunk. It returns ErrAgain when it has
// caught up with the bag's current contents (more may be inserted later)
// and ErrEmpty when the bag is sealed everywhere and fully scanned.
func (sc *Scanner) Next(ctx context.Context) (chunk.Chunk, error) {
	if m := sc.store.NumSlots(); m > len(sc.cursor) {
		grown := make([]int64, m)
		copy(grown, sc.cursor)
		sc.cursor = grown
		sc.slots = slotBags(sc.name, m)
	}
	m := len(sc.cursor)
	sealedAndDone := 0
	for i := 0; i < m; i++ {
		slot := (sc.slot + i) % m
		resp, err := sc.store.callSlot(ctx, slot, &transport.Request{
			Op:  transport.OpReadAt,
			Bag: sc.slots[slot],
			Arg: sc.cursor[slot],
		})
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case transport.StatusOK:
			sc.cursor[slot]++
			sc.slot = slot // stay on a productive slot
			return resp.Data, nil
		case transport.StatusEmpty:
			sealedAndDone++
		case transport.StatusAgain:
			// caught up on this slot
		default:
			return nil, resp.Error()
		}
	}
	if sealedAndDone == m {
		return nil, ErrEmpty
	}
	return nil, ErrAgain
}

// Reset rewinds the scanner to the beginning of the bag.
func (sc *Scanner) Reset() {
	for i := range sc.cursor {
		sc.cursor[i] = 0
	}
	sc.slot = 0
}

// Drain scans every currently available chunk, invoking fn for each, and
// returns when it has caught up (ErrAgain) or exhausted a sealed bag
// (ErrEmpty); both are reported as (caughtUp, nil). Other errors abort.
func (sc *Scanner) Drain(ctx context.Context, fn func(chunk.Chunk) error) (sealed bool, err error) {
	for {
		c, err := sc.Next(ctx)
		if err == ErrAgain {
			return false, nil
		}
		if err == ErrEmpty {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if err := fn(c); err != nil {
			return false, err
		}
	}
}
