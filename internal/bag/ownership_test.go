package bag

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ownershipStore is a three-node tier with 4 KiB chunks, in-process or
// behind TCP loopback listeners.
func ownershipStore(t *testing.T, tcp bool) *Store {
	t.Helper()
	names := []string{"s0", "s1", "s2"}
	var client transport.Client
	if tcp {
		addrs := make(map[string]string)
		for _, n := range names {
			srv := transport.NewTCPServer(storage.NewNode(n))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[n] = addr
		}
		c := transport.NewTCPClient(addrs)
		t.Cleanup(func() { c.Close() })
		client = c
	} else {
		tr := transport.NewInProc()
		for _, n := range names {
			tr.Register(n, storage.NewNode(n))
		}
		client = tr
	}
	st, err := NewStore(Config{Nodes: names, Client: client, ChunkSize: 4 << 10, BatchFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// ownershipRecord is record seq of producer p: 8 bytes of identity followed
// by a body that the identity determines, so a reader can tell a record
// that was overwritten after it was emitted from one that was not.
func ownershipRecord(buf []byte, p, seq int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(p))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(seq))
	for i := 0; i < 16+seq%48; i++ {
		buf = append(buf, byte(p*131+seq*31+i))
	}
	return buf
}

// checkOwnershipChunk verifies every record of c and reports them to seen.
func checkOwnershipChunk(c chunk.Chunk, seen func(p, seq int)) error {
	r := chunk.NewReader(c)
	var want []byte
	for r.Remaining() {
		rec, err := r.Next()
		if err != nil {
			return err
		}
		if len(rec) < 8 {
			return fmt.Errorf("record of %d bytes", len(rec))
		}
		p, seq := int(binary.LittleEndian.Uint32(rec)), int(binary.LittleEndian.Uint32(rec[4:]))
		want = ownershipRecord(want, p, seq)
		if string(rec) != string(want) {
			return fmt.Errorf("record %d of producer %d changed after it was emitted", seq, p)
		}
		seen(p, seq)
	}
	return nil
}

// TestEmittedChunksAreNeverWrittenAgain is the ownership rule under load:
// a chunk is immutable once emitted and whoever receives it may keep it, so
// nothing on the path copies it — the in-memory backend stores the very
// slice the producer's framer emitted (in-process) or the message body it
// arrived in (TCP), and hands that one slice to every reader. Concurrent
// producers keep framing and pipelining while cloned consumers and a
// non-consuming scanner read every byte of every chunk; run under -race,
// any write to an emitted chunk — a reused frame buffer, a recycled
// message body — is a reported data race, and a changed byte fails the
// content check on either build.
func TestEmittedChunksAreNeverWrittenAgain(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			const producers, perProducer, clones = 4, 1500, 3
			st := ownershipStore(t, tcp)
			ctx := context.Background()

			errs := make(chan error, producers+clones+1)
			var prod sync.WaitGroup
			for p := 0; p < producers; p++ {
				prod.Add(1)
				go func(p int) {
					defer prod.Done()
					ins := st.Bag("own").Inserter(ctx)
					w := chunk.NewWriter(st.ChunkSize(), func(c chunk.Chunk) error { return ins.Insert(c) })
					var rec []byte
					for seq := 0; seq < perProducer; seq++ {
						rec = ownershipRecord(rec, p, seq)
						if err := w.Append(rec); err != nil {
							errs <- err
							return
						}
					}
					if err := w.Flush(); err != nil {
						errs <- err
						return
					}
					if err := ins.Close(); err != nil {
						errs <- err
					}
				}(p)
			}

			var mu sync.Mutex
			consumed := make(map[[2]int]int)
			var cons sync.WaitGroup
			for c := 0; c < clones; c++ {
				cons.Add(1)
				go func() {
					defer cons.Done()
					b := st.Bag("own")
					defer b.CloseConsumer()
					for {
						ck, err := b.Remove(ctx)
						if err == ErrEmpty {
							return
						}
						if err == nil {
							err = checkOwnershipChunk(ck, func(p, seq int) {
								mu.Lock()
								consumed[[2]int{p, seq}]++
								mu.Unlock()
							})
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			// The scanner reads the same stored slices the clones remove,
			// at its own pace, until the bag is sealed and it has seen all.
			scanned := 0
			cons.Add(1)
			go func() {
				defer cons.Done()
				sc := st.Scanner("own")
				for {
					sealed, err := sc.Drain(ctx, func(ck chunk.Chunk) error {
						return checkOwnershipChunk(ck, func(int, int) { scanned++ })
					})
					if err != nil {
						errs <- err
						return
					}
					if sealed {
						return
					}
				}
			}()

			prod.Wait()
			if err := st.Seal(ctx, "own"); err != nil {
				t.Fatal(err)
			}
			cons.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if len(consumed) != producers*perProducer {
				t.Fatalf("consumed %d distinct records, want %d", len(consumed), producers*perProducer)
			}
			for k, n := range consumed {
				if n != 1 {
					t.Fatalf("record %v consumed %d times", k, n)
				}
			}
			if scanned != producers*perProducer {
				t.Fatalf("scanned %d records, want %d", scanned, producers*perProducer)
			}
		})
	}
}

// TestRetainedPartialChunkDoesNotPinItsBuffer: the framer emits a partial
// chunk in a buffer of the full chunk size; stored as is, a bag of small
// flushes would hold a chunk size per flush. The backend right-sizes it.
func TestRetainedPartialChunkDoesNotPinItsBuffer(t *testing.T) {
	st := ownershipStore(t, false) // in-process: the scanner sees the stored slice itself
	ctx := context.Background()
	b := st.Bag("partial")
	w := chunk.NewWriter(st.ChunkSize(), func(c chunk.Chunk) error { return b.Insert(ctx, c) })
	if err := w.Append([]byte("a few bytes")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := st.Scanner("partial").Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cap(c) > 2*len(c) {
		t.Fatalf("a %d-byte partial chunk pins %d bytes (chunk size %d)", len(c), cap(c), st.ChunkSize())
	}
}
