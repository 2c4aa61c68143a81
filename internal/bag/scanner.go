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
//
// A slot's replicas may hold its chunks in different orders, so a cursor
// is only good on the replica that advanced it. When a slot's serving
// replica changes (failover), the scanner rescans that slot from index 0
// on the new one and skips the chunk ids it has already returned.
type Scanner struct {
	store  *Store
	name   string
	cursor []int64         // per-slot next chunk index
	slots  []string        // per-slot bag keys
	served []string        // per-slot replica the cursor walks
	seen   map[uint64]bool // ids returned, kept only with replication
	slot   int             // round-robin position
}

// Scanner returns a new scanner positioned at the start of the bag.
func (s *Store) Scanner(name string) *Scanner {
	sc := &Scanner{store: s, name: name}
	sc.Reset()
	return sc
}

// Next returns the next unscanned chunk. It returns ErrAgain when it has
// caught up with the bag's current contents (more may be inserted later)
// and ErrEmpty when the bag is sealed everywhere and fully scanned.
func (sc *Scanner) Next(ctx context.Context) (chunk.Chunk, error) {
	if m := sc.store.NumSlots(); m > len(sc.cursor) {
		sc.grow(m)
	}
	m := len(sc.cursor)
	sealedAndDone := 0
	for i := 0; i < m; i++ {
		slot := (sc.slot + i) % m
		resp, err := sc.read(ctx, slot)
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case transport.StatusOK:
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

// read returns the slot's next chunk not yet returned, or the status that
// ends the slot for now.
func (sc *Scanner) read(ctx context.Context, slot int) (*transport.Response, error) {
	for {
		resp, node, err := sc.store.callSlotServed(ctx, slot, &transport.Request{
			Op:  transport.OpReadAt,
			Bag: sc.slots[slot],
			Arg: sc.cursor[slot],
		})
		if err != nil {
			return nil, err
		}
		if node != sc.served[slot] {
			restart := sc.cursor[slot] > 0 // a failover, not the first read
			sc.served[slot], sc.cursor[slot] = node, 0
			if restart {
				continue
			}
		}
		if resp.Status != transport.StatusOK {
			return resp, nil
		}
		sc.cursor[slot]++
		if sc.seen != nil {
			if sc.seen[resp.ID] {
				continue
			}
			sc.seen[resp.ID] = true
		}
		return resp, nil
	}
}

// grow extends the scanner to m slots (storage nodes were added).
func (sc *Scanner) grow(m int) {
	sc.cursor = append(sc.cursor, make([]int64, m-len(sc.cursor))...)
	sc.served = append(sc.served, make([]string, m-len(sc.served))...)
	sc.slots = slotBags(sc.name, m)
}

// Reset rewinds the scanner to the beginning of the bag.
func (sc *Scanner) Reset() {
	sc.cursor, sc.served, sc.seen, sc.slot = nil, nil, nil, 0
	if sc.store.cfg.replication() > 1 {
		sc.seen = make(map[uint64]bool)
	}
	sc.grow(sc.store.NumSlots())
}

// Drain scans every currently available chunk, invoking fn for each, and
// returns once it has caught up; sealed reports that the bag is sealed and
// fully scanned. It reads each slot in turn until the slot is done for this
// drain: read to the chunk count its last answer carried (sealed when that
// answer said so), or answered "temporarily empty" or "sealed and empty".
// So a drain asks no slot past the end it was just told of, and a drain
// that finds nothing new asks each slot once. Errors abort.
func (sc *Scanner) Drain(ctx context.Context, fn func(chunk.Chunk) error) (sealed bool, err error) {
	if m := sc.store.NumSlots(); m > len(sc.cursor) {
		sc.grow(m)
	}
	done := 0 // slots sealed and fully scanned
	for slot := range sc.cursor {
		for {
			resp, err := sc.read(ctx, slot)
			if err != nil {
				return false, err
			}
			if resp.Status == transport.StatusEmpty {
				done++
				break
			}
			if resp.Status == transport.StatusAgain {
				break
			}
			if resp.Status != transport.StatusOK {
				return false, resp.Error()
			}
			if err := fn(resp.Data); err != nil {
				return false, err
			}
			if sc.cursor[slot] >= resp.TotalChunks {
				if resp.Sealed {
					done++
				}
				break
			}
		}
	}
	return done == len(sc.cursor), nil
}
