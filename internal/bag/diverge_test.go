package bag

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/transport"
)

// divergedPair is a two-node tier at r = 2, reached through a Faulty
// client, in-process or behind TCP loopback listeners. Slot 0's primary
// is s0 and its backup s1.
type divergedPair struct {
	st    *Store
	f     *transport.Faulty
	crash func(node string) // stops a node the way its transport does
}

func newDivergedPair(t *testing.T, tcp bool) *divergedPair {
	t.Helper()
	names := []string{"s0", "s1"}
	var inner transport.Client
	var crash func(string)
	if tcp {
		addrs := make(map[string]string)
		srvs := make(map[string]*transport.TCPServer)
		for _, n := range names {
			srv := transport.NewTCPServer(storage.NewNode(n))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[n], srvs[n] = addr, srv
		}
		c := transport.NewTCPClient(addrs)
		t.Cleanup(func() { c.Close() })
		inner, crash = c, func(n string) { srvs[n].Close() }
	} else {
		tr := transport.NewInProc()
		for _, n := range names {
			tr.Register(n, storage.NewNode(n))
		}
		inner, crash = tr, tr.Crash
	}
	f := transport.NewFaulty(inner)
	st, err := NewStore(Config{Nodes: names, Client: f, BatchFactor: 1, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &divergedPair{st: st, f: f, crash: crash}
}

// handleAt returns a handle on name whose next insert goes to slot.
func (p *divergedPair) handleAt(name string, slot int) *Bag {
	h := p.st.Bag(name)
	for h.perm[h.pos%len(h.perm)] != slot {
		h.pos++
	}
	return h
}

// diverge has two goroutines insert first and then second into slot 0
// of name, each through its own handle, and holds first's backup copy
// until second's has landed: s0 holds [first second], s1 [second first].
func (p *divergedPair) diverge(t *testing.T, name string, first, second []byte) {
	t.Helper()
	ctx := context.Background()
	slot0 := slotBag(name, 0)
	landed := name + " second landed"
	held := p.f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Node: "s1", Bag: slot0, Nth: 1}, Hold: landed})
	// The first reply from s1 is second's: first's copy is held until then.
	p.f.Add(transport.Rule{Match: transport.Match{Op: transport.OpInsert, Node: "s1", Bag: slot0}, When: transport.OnReply, Fire: landed})
	errs := make(chan error, 2)
	go func() { errs <- p.handleAt(name, 0).Insert(ctx, first) }()
	<-held // first is on s0 and on its way to s1
	go func() { errs <- p.handleAt(name, 0).Insert(ctx, second) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// onceEach fails unless got holds each of want exactly once.
func onceEach(t *testing.T, got map[string]int, want ...string) {
	t.Helper()
	ok := len(got) == len(want)
	for _, w := range want {
		ok = ok && got[w] == 1
	}
	if !ok {
		t.Fatalf("delivered %v, want each of %q once", got, want)
	}
}

// tally counts each chunk it is given in got.
func tally(got map[string]int) func(chunk.Chunk) error {
	return func(c chunk.Chunk) error { got[string(c)]++; return nil }
}

// removeRest removes from r until it is empty, counting each chunk in got.
func removeRest(t *testing.T, r *Bag, got map[string]int) {
	t.Helper()
	for {
		c, err := r.Remove(context.Background())
		if err == ErrEmpty {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		got[string(c)]++
	}
}

func overTransports(t *testing.T, run func(t *testing.T, p *divergedPair)) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			run(t, newDivergedPair(t, tcp))
		})
	}
}

// TestDivergedReplicasRemoveOnce: a slot's two chunks sit on its replicas
// in opposite orders. A consumer removes one from the primary, and its
// next remove reaches the primary only after the primary crashed, so the
// consumer fails over to the backup. Each chunk is delivered once: the
// backup skips the chunk taken by id, wherever it sits.
func TestDivergedReplicasRemoveOnce(t *testing.T) {
	overTransports(t, func(t *testing.T, p *divergedPair) {
		ctx := context.Background()
		p.diverge(t, "data", []byte("chunk 0"), []byte("chunk 1"))
		if err := p.st.Seal(ctx, "data"); err != nil {
			t.Fatal(err)
		}
		p.f.Add(transport.Rule{Match: transport.Match{Op: transport.OpRemove, Node: "s0", Bag: slotBag("data", 0), Nth: 2}, Hold: "crashed"})
		r := p.st.Bag("data")
		defer r.CloseConsumer()
		got := map[string]int{}
		c, err := r.Remove(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got[string(c)]++
		p.crash("s0")
		p.f.Fire("crashed")
		removeRest(t, r, got)
		onceEach(t, got, "chunk 0", "chunk 1")
	})
}

// TestLostReplyDeliversOnce: slot 0's primary applies an insert, or a
// remove, and crashes before its reply arrives: the client sees
// ErrNodeDown. The insert then lands on the backup alone; the remove is
// made again on the backup, which still holds the chunk the primary took.
// Either way each chunk is delivered once.
func TestLostReplyDeliversOnce(t *testing.T) {
	for _, op := range []transport.Op{transport.OpInsert, transport.OpRemove} {
		t.Run(map[transport.Op]string{transport.OpInsert: "insert", transport.OpRemove: "remove"}[op], func(t *testing.T) {
			overTransports(t, func(t *testing.T, p *divergedPair) {
				ctx := context.Background()
				lost := p.f.Add(transport.Rule{Match: transport.Match{Op: op, Node: "s0", Bag: slotBag("data", 0), Nth: 1}, When: transport.OnReply,
					Tap: func(string, *transport.Request, *transport.Response) { p.crash("s0") }, Err: transport.ErrNodeDown})
				for _, c := range []string{"chunk 0", "chunk 1"} {
					if err := p.handleAt("data", 0).Insert(ctx, []byte(c)); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.st.Seal(ctx, "data"); err != nil {
					t.Fatal(err)
				}
				r := p.st.Bag("data")
				defer r.CloseConsumer()
				got := map[string]int{}
				removeRest(t, r, got)
				select {
				case <-lost:
				default:
					t.Fatal("no reply was lost")
				}
				onceEach(t, got, "chunk 0", "chunk 1")
			})
		})
	}
}

// TestDivergedReplicasScanOnce: a scanner reads one chunk of the slot
// from the primary, then the primary crashes. The backup's order differs,
// so the scanner rescans the slot there and skips the id it returned.
func TestDivergedReplicasScanOnce(t *testing.T) {
	overTransports(t, func(t *testing.T, p *divergedPair) {
		ctx := context.Background()
		p.diverge(t, "data", []byte("chunk 0"), []byte("chunk 1"))
		if err := p.st.Seal(ctx, "data"); err != nil {
			t.Fatal(err)
		}
		sc := p.st.Scanner("data")
		got := map[string]int{}
		c, err := sc.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got[string(c)]++
		p.crash("s0")
		if _, err := sc.Drain(ctx, tally(got)); err != nil {
			t.Fatal(err)
		}
		onceEach(t, got, "chunk 0", "chunk 1")
	})
}

// doneEvent is shaped like a compute node's completion record in a done
// work bag.
func doneEvent(node string) []byte {
	return []byte(fmt.Sprintf(`{"task":"count","spec":"count","node":%q,"epoch":1,"worker":"w0","ok":true}`, node))
}

// TestDivergedWorkBags: two compute nodes record completions into one
// done bag at the same time and their events land on the replicas in
// opposite orders; so do two blueprints in a ready bag. After the primary
// crashes, a master-style scanner sees each event once and polls hand out
// each blueprint once.
func TestDivergedWorkBags(t *testing.T) {
	overTransports(t, func(t *testing.T, p *divergedPair) {
		ctx := context.Background()
		p.diverge(t, "j!done", doneEvent("c0"), doneEvent("c1"))
		p.diverge(t, "j!ready", []byte(`{"id":"count/w0"}`), []byte(`{"id":"count/w1"}`))

		sc := p.st.Scanner("j!done")
		events := map[string]int{}
		if c, err := sc.Next(ctx); err != nil {
			t.Fatal(err)
		} else {
			events[string(c)]++
		}
		h := p.st.Bag("j!ready")
		blueprints := map[string]int{}
		if c, err := h.Poll(ctx); err != nil {
			t.Fatal(err)
		} else {
			blueprints[string(c)]++
		}

		p.crash("s0")
		if _, err := sc.Drain(ctx, tally(events)); err != nil {
			t.Fatal(err)
		}
		onceEach(t, events, string(doneEvent("c0")), string(doneEvent("c1")))
		for {
			c, err := h.Poll(ctx)
			if err == ErrAgain {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			blueprints[string(c)]++
		}
		onceEach(t, blueprints, `{"id":"count/w0"}`, `{"id":"count/w1"}`)
	})
}
