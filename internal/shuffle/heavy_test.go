package shuffle

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// The contract of a writer's key statistics, as the tests below state it
// for a stream of n records: per-leaf counts are exact; every key with a
// true share of at least 1/heavyAdmitFraction is a heavy-key candidate; a
// candidate's count is at least its true count less n/stretchFeedFraction
// (what the stretches that did not feed it held) and at most its true count
// plus the count-min error, 2/width of what was fed — of n at most.

// cmSlack is that count-min error over a stream of n records.
func cmSlack(n int) uint64 { return uint64(2 * n / sketch.DefaultWidth) }

// longKey is a 20-byte key whose first 8 bytes every such key shares, so
// nothing but the stored bytes tells two of them apart.
func longKey(i uint64) []byte { return []byte(fmt.Sprintf("longkey:%012d", i)) }

// checkHeavy holds st, the statistics one writer left for a stream with the
// given exact per-key counts, to the contract.
func checkHeavy(t *testing.T, st *sketch.EdgeStats, truth map[string]uint64, n int) {
	t.Helper()
	listed := make(map[string]bool)
	for _, h := range st.Heavy {
		listed[string(h.Key)] = true
		exact := truth[string(h.Key)]
		if h.Count+uint64(n)/stretchFeedFraction < exact || h.Count > exact+cmSlack(n) {
			t.Errorf("candidate %x: count %d, true count %d of %d records: outside [true-n/%d, true+%d]",
				h.Key, h.Count, exact, n, stretchFeedFraction, cmSlack(n))
		}
	}
	if len(listed) != len(st.Heavy) || len(st.Heavy) > sketch.MaxHeavyKeys {
		t.Errorf("%d candidates, %d distinct, cap %d", len(st.Heavy), len(listed), sketch.MaxHeavyKeys)
	}
	for k, c := range truth {
		if c*heavyAdmitFraction >= uint64(n) && !listed[k] {
			t.Errorf("key %x holds %d of %d records and is no candidate", k, c, n)
		}
	}
}

// TestHeavyContract holds the statistics at Close to the contract above
// over seeded streams of every shape the count table treats differently:
// heavy and light tails over many and over few keys, one key per stretch
// (sorted), no key above the admission line (round robin), no key twice
// (stretches cut short by the table filling) and keys the table cannot hold
// inline (20 bytes) — through the batch path for key words and through
// Write for key bytes.
func TestHeavyContract(t *testing.T) {
	const n = 1 << 18
	streams := make(map[string][]uint64)
	for _, s := range []float64{1.1, 1.3, 2} {
		for _, domain := range []uint64{1 << 16, 64} {
			z := rand.NewZipf(rand.New(rand.NewSource(int64(100*s)+int64(domain))), s, 1, domain-1)
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = z.Uint64()
			}
			streams[fmt.Sprintf("zipf%.1f/%d", s, domain)] = keys
		}
	}
	sorted := append([]uint64(nil), streams["zipf1.3/65536"]...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	streams["sorted"] = sorted
	robin, distinct := make([]uint64, n), make([]uint64, n)
	for i := range robin {
		robin[i], distinct[i] = uint64(i%37), uint64(i)
	}
	streams["roundrobin37"], streams["distinct"] = robin, distinct

	ctx := context.Background()
	pm := BaseMap("e", 4)
	for name, keys := range streams {
		for _, long := range []bool{false, true} {
			if long && name != "zipf1.3/65536" {
				continue
			}
			t.Run(fmt.Sprintf("%s/long=%v", name, long), func(t *testing.T) {
				st := newTestStore(t, 1, 4<<10)
				w := NewWriter(ctx, WriterConfig{Store: st, Edge: "e", Parts: 4, WriterID: "w0"})
				truth, leaves := make(map[string]uint64), make(map[string]uint64)
				toKey := key
				if long {
					toKey = longKey
				}
				for i, k := range keys {
					truth[string(toKey(k))]++
					leaves[pm.Route(toKey(k), i)]++
				}
				if long {
					for _, k := range keys {
						if err := w.Write(longKey(k), []byte("r")); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
				} else {
					s := NewScatter(w, tupleCodec, nil)
					s.KeyUint64(func(v tuple) uint64 { return v.First })
					batch := make([]tuple, 0, 1000) // cuts neither at ticks nor at scatter blocks
					for lo := 0; lo < n; lo += cap(batch) {
						batch = batch[:0]
						for _, k := range keys[lo:min(lo+cap(batch), n)] {
							batch = append(batch, tuple{First: k})
						}
						if err := s.WriteBatch(batch); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				}
				got, err := st.FetchSketch(ctx, "e")
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Counts) != fmt.Sprint(leaves) {
					t.Errorf("per-leaf counts %v, the stream routes %v", got.Counts, leaves)
				}
				checkHeavy(t, got, truth, n)
				switch name {
				case "distinct":
					// Stretches of 256 keys once each feed nothing; the last,
					// shorter than stretchFeedFraction, may feed all it has.
					if w.feeds > stretchFeedFraction {
						t.Errorf("%d keys of an all-distinct stream were fed to the sketch", w.feeds)
					}
				case "roundrobin37":
					// Every key takes 1/37 of every stretch, so all are fed —
					// and none is a candidate to check.
					checkRoundRobinEstimates(t, got, 37, n)
				}
			})
		}
	}
}

// lateKeyStream is a stream that fills the candidate list before the key
// that matters arrives: 40 keys in key order, each run 8 % longer than the
// one before from 2,048 records — every one a candidate when its run ends —
// and then 2.1 M records of which every second is one key, 40 % of the
// stream, between records of keys seen once.
func lateKeyStream() (keys []uint64, late uint64) {
	run := 2048.0
	for k := uint64(1); k <= 40; k++ {
		for i := 0; i < int(run); i++ {
			keys = append(keys, k)
		}
		run *= 1.08
	}
	late = 1 << 40
	for i := uint64(0); i < 2_100_000; i += 2 {
		keys = append(keys, late, late+1+i)
	}
	return keys, late
}

// TestHeavyListAdmitsLateKey: a full candidate list gives way to a heavier
// key. Before it evicted, the 33rd candidate of a stream was never one,
// whatever its share, and the master could never isolate it.
func TestHeavyListAdmitsLateKey(t *testing.T) {
	keys, late := lateKeyStream()
	truth := make(map[string]uint64)
	for _, k := range keys {
		truth[string(key(k))]++
	}
	for _, api := range []string{"PartitionBatchUint64", "RouteKey"} {
		t.Run(api, func(t *testing.T) {
			w := NewWriter(context.Background(), WriterConfig{Store: newTestStore(t, 1, 0), Edge: "e", Parts: 4, WriterID: "w0"})
			if api == "RouteKey" {
				for _, k := range keys {
					w.RouteKey(key(k))
				}
			} else {
				for lo := 0; lo < len(keys); lo += 4096 {
					w.PartitionBatchUint64(keys[lo:min(lo+4096, len(keys))])
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if i, ok := w.heavyIdx[string(key(late))]; !ok || string(w.stats.Heavy[i].Key) != string(key(late)) {
				t.Fatalf("the key holding %d of %d records is not among the %d candidates",
					truth[string(key(late))], len(keys), len(w.stats.Heavy))
			}
			if len(w.heavyIdx) != len(w.stats.Heavy) {
				t.Errorf("index holds %d keys, the list %d", len(w.heavyIdx), len(w.stats.Heavy))
			}
			checkHeavy(t, w.stats, truth, len(keys))
		})
	}
}

// routeBenchKeys is BenchmarkRouteUint64's stream: Zipf(1.3) over 2^16 keys.
func routeBenchKeys() []uint64 {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.3, 1, 1<<16-1)
	keys := make([]uint64, 1<<20)
	for i := range keys {
		keys[i] = z.Uint64()
	}
	return keys
}

// TestRouteAllocsPerRecord guards what routing and counting a record costs
// on the benchmark's stream: once the candidate list has settled, no
// allocation on either routing path, and at most one sketch feed per
// heavyAdmitFraction records — read where an operator reads it, from the
// counters the writer leaves at Close.
func TestRouteAllocsPerRecord(t *testing.T) {
	keys := routeBenchKeys()
	const warm, block = 1 << 19, 4096
	o := obs.New(0)
	newWriter := func(edge string) *Writer {
		// An hour's gate: the exchange before the first record is the only one.
		return NewWriter(context.Background(), WriterConfig{Store: newTestStore(t, 1, 0), Edge: edge, Parts: 4,
			WriterID: "w0", StatsInterval: time.Hour, Obs: o, Job: "j"})
	}

	wb, lo := newWriter("batch"), warm
	wb.PartitionBatchUint64(keys[:warm])
	if a := testing.AllocsPerRun(100, func() {
		wb.PartitionBatchUint64(keys[lo : lo+block])
		lo += block
	}); a != 0 {
		t.Errorf("PartitionBatchUint64 allocates %.0f times per %d records", a, block)
	}

	wr, at := newWriter("row"), 0
	var kb [8]byte
	route := func(count int) {
		for _, k := range keys[at : at+count] {
			binary.LittleEndian.PutUint64(kb[:], k)
			wr.RouteKey(kb[:])
		}
		at += count
	}
	route(warm)
	if a := testing.AllocsPerRun(100, func() { route(block) }); a != 0 {
		t.Errorf("RouteKey allocates %.0f times per %d records", a, block)
	}

	// Scatter.WriteBatch routes, counts, groups and encodes; its chunk size
	// keeps every leaf's rows in the open chunk, so no insert is measured.
	tuples := make([]tuple, warm+101*block)
	for i := range tuples {
		tuples[i] = tuple{First: keys[i], Second: uint64(i)}
	}
	writers, closers := map[string]*Writer{"batch": wb, "row": wr}, map[string]func() error{"batch": wb.Close, "row": wr.Close}
	for _, kind := range []string{"words", "bytes"} {
		edge := "scatter-" + kind
		w := NewWriter(context.Background(), WriterConfig{Store: newTestStore(t, 1, 1<<26), Edge: edge, Parts: 4,
			WriterID: "w0", StatsInterval: time.Hour, Obs: o, Job: "j"})
		s := NewScatter(w, tupleCodec, func(v tuple) []byte { binary.LittleEndian.PutUint64(kb[:], v.First); return kb[:] })
		if kind == "words" {
			s.KeyUint64(func(v tuple) uint64 { return v.First })
		}
		writers[edge], closers[edge] = w, s.Close
		at := warm
		if err := s.WriteBatch(tuples[:at]); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() {
			if err := s.WriteBatch(tuples[at : at+block]); err != nil {
				t.Fatal(err)
			}
			at += block
		}); a != 0 {
			t.Errorf("Scatter.WriteBatch, %s keys, allocates %.0f times per %d records", kind, a, block)
		}
	}

	for edge, w := range writers {
		if err := closers[edge](); err != nil {
			t.Fatal(err)
		}
		feeds := o.Counter("hurricane_shuffle_sketch_feeds_total", "job", "j", "edge", edge).Value()
		records := o.Counter("hurricane_shuffle_records_total", "job", "j", "edge", edge).Value()
		t.Logf("%s: %d sketch feeds for %d records (%.4f per record)", edge, feeds, records, float64(feeds)/float64(records))
		if records != w.n || feeds == 0 || feeds*heavyAdmitFraction > records {
			t.Errorf("%s: the writer routed %d records; want that many counted and one feed per %d at most", edge, w.n, heavyAdmitFraction)
		}
	}
}
