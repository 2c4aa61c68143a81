package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestTraceOverflow pins the ring's class-based overflow contract: past
// capacity, lifecycle chatter is dropped-new, while control-plane
// decision events evict the oldest lifecycle event (the oldest event
// outright once only decisions remain). Every displacement counts in
// Dropped; the ring never blocks and never grows past its capacity.
func TestTraceOverflow(t *testing.T) {
	const capacity = 8
	tr := NewTrace(capacity)
	// Lifecycle chatter past capacity: dropped-new, oldest retained.
	for i := 0; i < 2*capacity; i++ {
		tr.Emit(EvTaskScheduled, "job", fmt.Sprintf("life-%d", i), "")
	}
	if got := tr.Len(); got != capacity {
		t.Fatalf("retained %d events, want %d", got, capacity)
	}
	if got := tr.Dropped(); got != capacity {
		t.Fatalf("dropped %d events, want %d", got, capacity)
	}
	if got := cap(tr.ring); got != capacity {
		t.Fatalf("ring reallocated: cap %d, want %d", got, capacity)
	}
	evs := tr.Events("", "")
	for i, e := range evs {
		if want := fmt.Sprintf("life-%d", i); e.Subject != want {
			t.Fatalf("event %d subject %q, want %q", i, e.Subject, want)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("non-monotonic seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
		if i > 0 && evs[i].TMicros < evs[i-1].TMicros {
			t.Fatalf("non-monotonic time at %d", i)
		}
	}
	// Decision events arriving at a full ring are never starved: each
	// evicts the oldest lifecycle event instead of being dropped.
	for i := 0; i < capacity; i++ {
		tr.Emit(EvTaskCloned, "job", fmt.Sprintf("dec-%d", i), "")
	}
	if got := tr.Len(); got != capacity {
		t.Fatalf("retained %d events after decisions, want %d", got, capacity)
	}
	if got := tr.Dropped(); got != 2*capacity {
		t.Fatalf("dropped %d events, want %d", got, 2*capacity)
	}
	if got := len(tr.Events("", EvTaskCloned)); got != capacity {
		t.Fatalf("retained %d decision events, want all %d", got, capacity)
	}
	// All-decision ring: a further decision evicts the oldest decision.
	tr.Emit(EvCloneYielded, "job", "edge", "")
	evs = tr.Events("", "")
	if len(evs) != capacity || evs[0].Subject != "dec-1" || evs[capacity-1].Subject != "edge" {
		t.Fatalf("all-decision eviction wrong: %+v", evs)
	}
}

// TestTraceConcurrentEmit hammers the ring from many goroutines; the
// invariant len+dropped == emitted must hold exactly.
func TestTraceConcurrentEmit(t *testing.T) {
	const capacity, emitters, perEmitter = 64, 8, 100
	tr := NewTrace(capacity)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				tr.Emit(EvLeaseGrant, "j", "n", "")
			}
		}()
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != emitters*perEmitter {
		t.Fatalf("len+dropped = %d, want %d", got, emitters*perEmitter)
	}
}

// TestTraceFilters checks job/type filtering in Events.
func TestTraceFilters(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(EvTaskCloned, "a", "t1", "")
	tr.Emit(EvCloneYielded, "a", "e1", "")
	tr.Emit(EvTaskCloned, "b", "t2", "")
	if got := len(tr.Events("a", "")); got != 2 {
		t.Fatalf("job filter: %d events, want 2", got)
	}
	if got := len(tr.Events("", EvTaskCloned)); got != 2 {
		t.Fatalf("type filter: %d events, want 2", got)
	}
	if got := len(tr.Events("b", EvTaskCloned)); got != 1 {
		t.Fatalf("combined filter: %d events, want 1", got)
	}
}

// TestNilObserverIsNoOp pins constraint 2: a nil observer and all of its
// handles are callable and do nothing.
func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.Counter("hurricane_test_total").Inc()
	o.Gauge("hurricane_test_depth").Set(3)
	o.Histogram("hurricane_test_lat").Observe(100)
	o.Emit(EvTaskCloned, "j", "t", "")
	if o.Tracer().Len() != 0 || o.Tracer().Dropped() != 0 {
		t.Fatal("nil trace retained events")
	}
	if got := o.Registry().Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %v", got)
	}
	var tr *Trace
	if tr.Events("", "") != nil {
		t.Fatal("nil trace Events non-nil")
	}
}

// TestRegistryHandles checks registration identity and snapshot values.
func TestRegistryHandles(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hurricane_core_clones_total", "job", "q1")
	c2 := r.Counter("hurricane_core_clones_total", "job", "q1")
	if c1 != c2 {
		t.Fatal("same name+labels returned distinct counter handles")
	}
	other := r.Counter("hurricane_core_clones_total", "job", "q2")
	if other == c1 {
		t.Fatal("distinct labels shared a handle")
	}
	c1.Add(3)
	other.Inc()
	r.Gauge("hurricane_sched_queue_depth").Set(2)

	snap := r.Snapshot()
	if got := snap[`hurricane_core_clones_total{job="q1"}`]; got != 3 {
		t.Fatalf("q1 clones = %v, want 3", got)
	}
	if got := snap[`hurricane_core_clones_total{job="q2"}`]; got != 1 {
		t.Fatalf("q2 clones = %v, want 1", got)
	}
	if got := snap["hurricane_sched_queue_depth"]; got != 2 {
		t.Fatalf("queue depth = %v, want 2", got)
	}

	// SnapshotFor narrows to one job, strips the label, keeps globals.
	job := r.SnapshotFor("job", "q1")
	if got := job["hurricane_core_clones_total"]; got != 3 {
		t.Fatalf("SnapshotFor clones = %v, want 3", got)
	}
	if _, ok := job[`hurricane_core_clones_total{job="q2"}`]; ok {
		t.Fatal("SnapshotFor leaked a foreign job's series")
	}
	if got := job["hurricane_sched_queue_depth"]; got != 2 {
		t.Fatalf("SnapshotFor dropped global series: %v", job)
	}
}

// TestHistogramQuantiles sanity-checks the power-of-two quantile
// estimates: estimates land within the observation's bucket (a 2x
// range).
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 1000) // 1ms..100ms in µs
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 32_000 || p50 > 128_000 {
		t.Fatalf("p50 = %d, want within [32000,128000] (true 50000)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64_000 || p99 > 256_000 {
		t.Fatalf("p99 = %d, want within [64000,256000] (true 99000)", p99)
	}
	if h.Quantile(0.5) < h.Quantile(0.1) {
		t.Fatal("quantiles not monotone")
	}
}

// TestWriteText checks the exposition format output.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("hurricane_core_clones_total", "job", "q1").Add(4)
	r.Histogram("hurricane_ctrl_snapshot_lag_us").Observe(500)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"hurricane_core_clones_total{job=\"q1\"} 4\n",
		"hurricane_ctrl_snapshot_lag_us_count 1\n",
		"hurricane_ctrl_snapshot_lag_us_p99",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
