package hurricane

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCountMinBasics(t *testing.T) {
	cm := NewCountMin(1024, 4)
	for i := 0; i < 100; i++ {
		cm.Add([]byte("hot"), 1)
	}
	cm.Add([]byte("cold"), 3)
	if got := cm.Estimate([]byte("hot")); got < 100 {
		t.Fatalf("count-min undercounted hot: %d", got)
	}
	if got := cm.Estimate([]byte("cold")); got < 3 || got > 103 {
		t.Fatalf("cold estimate %d implausible", got)
	}
	if got := cm.Estimate([]byte("absent")); got > 103 {
		t.Fatalf("absent estimate %d too large", got)
	}
}

// TestCountMinNeverUndercounts is the sketch's defining invariant.
func TestCountMinNeverUndercounts(t *testing.T) {
	f := func(keys []uint16) bool {
		cm := NewCountMin(256, 4)
		truth := map[uint16]uint64{}
		for _, k := range keys {
			var b [2]byte
			b[0], b[1] = byte(k), byte(k>>8)
			cm.Add(b[:], 1)
			truth[k]++
		}
		for k, want := range truth {
			var b [2]byte
			b[0], b[1] = byte(k), byte(k>>8)
			if cm.Estimate(b[:]) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCountMinMergeEqualsUnion: merging per-shard sketches equals
// sketching the union — the property that makes clone partials sound.
func TestCountMinMergeEqualsUnion(t *testing.T) {
	whole := NewCountMin(512, 4)
	a := NewCountMin(512, 4)
	b := NewCountMin(512, 4)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("k%d", i%37))
		whole.Add(key, 1)
		if i%2 == 0 {
			a.Add(key, 1)
		} else {
			b.Add(key, 1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if a.Estimate(key) != whole.Estimate(key) {
			t.Fatalf("merge != union for %s: %d vs %d",
				key, a.Estimate(key), whole.Estimate(key))
		}
	}
	if err := a.Merge(NewCountMin(16, 2)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestCountMinEncodeDecode(t *testing.T) {
	cm := NewCountMin(64, 3)
	for i := 0; i < 500; i++ {
		cm.Add([]byte{byte(i)}, uint64(i))
	}
	got, err := DecodeCountMin(cm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if got.Estimate([]byte{byte(i)}) != cm.Estimate([]byte{byte(i)}) {
			t.Fatal("round trip changed estimates")
		}
	}
	if _, err := DecodeCountMin([]byte{1}); err == nil {
		t.Fatal("truncated record must error")
	}
}

func TestHLLAccuracy(t *testing.T) {
	h := NewHLL(12) // ~1.6% standard error
	const n = 50000
	for i := 0; i < n; i++ {
		h.Add([]byte(fmt.Sprintf("element-%d", i)))
	}
	est := h.Estimate()
	if math.Abs(est-n)/n > 0.05 {
		t.Fatalf("HLL estimate %.0f for %d distinct (%.1f%% error)",
			est, n, 100*math.Abs(est-n)/n)
	}
	// Duplicates must not change the estimate.
	before := h.Estimate()
	for i := 0; i < n; i++ {
		h.Add([]byte(fmt.Sprintf("element-%d", i%100)))
	}
	if h.Estimate() != before {
		t.Fatal("duplicates changed the estimate")
	}
}

func TestHLLSmallRange(t *testing.T) {
	h := NewHLL(10)
	for i := 0; i < 10; i++ {
		h.Add([]byte{byte(i)})
	}
	est := h.Estimate()
	if est < 5 || est > 20 {
		t.Fatalf("small-range estimate %.1f for 10 distinct", est)
	}
}

// TestHLLMergeEqualsUnion: register-wise max of shard sketches equals the
// sketch of the union.
func TestHLLMergeEqualsUnion(t *testing.T) {
	whole, a, b := NewHLL(10), NewHLL(10), NewHLL(10)
	for i := 0; i < 20000; i++ {
		key := []byte(fmt.Sprintf("e%d", i))
		whole.Add(key)
		if i%3 == 0 {
			a.Add(key)
		} else {
			b.Add(key)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("merge %.1f != union %.1f", a.Estimate(), whole.Estimate())
	}
	if err := a.Merge(NewHLL(8)); err == nil {
		t.Fatal("precision mismatch must error")
	}
}

func TestHLLEncodeDecode(t *testing.T) {
	h := NewHLL(8)
	for i := 0; i < 1000; i++ {
		h.Add([]byte{byte(i), byte(i >> 8)})
	}
	got, err := DecodeHLL(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != h.Estimate() {
		t.Fatal("round trip changed the estimate")
	}
	if _, err := DecodeHLL(nil); err == nil {
		t.Fatal("empty record must error")
	}
	if _, err := DecodeHLL([]byte{12, 1, 2}); err == nil {
		t.Fatal("truncated registers must error")
	}
}

// TestSketchDistinctCountPipeline runs an approximate distinct count with
// HLL partials through the engine under forced cloning: every clone
// sketches its share, MergeHLL combines registers, and the estimate is
// identical to a serial sketch of the whole input.
func TestSketchDistinctCountPipeline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testClusterConfig()
	cfg.ChunkSize = 16 << 10 // HLL records at p=11 are ~2 KiB
	cfg.Master.StorageBandwidth = math.Inf(1)
	cfg.Master.CloneInterval = time.Millisecond
	cfg.Node.MonitorInterval = time.Millisecond
	cfg.Node.OverloadThreshold = 0.01
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	const p = 11
	app := NewApp("hllcount")
	app.SourceBag("in").Bag("sketch")
	app.AddTask(TaskSpec{
		Name:    "sketch",
		Inputs:  []string{"in"},
		Outputs: []string{"sketch"},
		Merge:   MergeHLL(),
		Run: func(tc *TaskCtx) error {
			h := NewHLL(p)
			if err := ForEach(tc, 0, StringOf, func(s string) error {
				h.Add([]byte(s))
				return nil
			}); err != nil {
				return err
			}
			return NewWriter(tc, 0, BytesOf).Write(h.Encode())
		},
	})

	const n = 40000
	vals := make([]string, n)
	serial := NewHLL(p)
	for i := range vals {
		vals[i] = fmt.Sprintf("user-%d", i%7777)
		serial.Add([]byte(vals[i]))
	}
	store := cluster.Store()
	if err := Load(ctx, store, "in", StringOf, vals); err != nil {
		t.Fatal(err)
	}
	if err := Seal(ctx, store, "in"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, app); err != nil {
		t.Fatal(err)
	}
	recs, err := Collect(ctx, store, "sketch", BytesOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d sketch records", len(recs))
	}
	got, err := DecodeHLL(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Clone partials merged register-wise must equal the serial sketch
	// exactly (same hash function, same elements).
	if got.Estimate() != serial.Estimate() {
		t.Fatalf("distributed estimate %.1f != serial %.1f (stats %+v)",
			got.Estimate(), serial.Estimate(), cluster.Master().Stats())
	}
	if math.Abs(got.Estimate()-7777)/7777 > 0.1 {
		t.Fatalf("estimate %.1f too far from 7777", got.Estimate())
	}
	t.Logf("estimate %.1f for 7777 distinct, stats %+v",
		got.Estimate(), cluster.Master().Stats())
}
