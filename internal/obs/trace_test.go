package obs

import "testing"

func TestTraceDroppedCounter(t *testing.T) {
	// obs.New binds the ring's displacement count to
	// hurricane_trace_dropped_total, so ring pressure is scrapeable.
	o := New(4)
	for i := 0; i < 7; i++ {
		o.Emit(EvTaskFinished, "j", "t", "lifecycle")
	}
	if d := o.Tracer().Dropped(); d != 3 {
		t.Fatalf("Dropped = %d, want 3", d)
	}
	if got := o.Registry().Snapshot()["hurricane_trace_dropped_total"]; got != 3 {
		t.Fatalf("hurricane_trace_dropped_total = %v, want 3", got)
	}
}

func TestSlowOpEventSurvivesCap(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 4; i++ {
		tr.Emit(EvTaskFinished, "j", "t", "lifecycle")
	}
	tr.Emit(EvStorageSlowOp, "j", "s0", "op=remove bag=b took=30ms")
	got := tr.Events("", EvStorageSlowOp)
	if len(got) != 1 {
		t.Fatalf("slow-op event did not survive a full ring: %d", len(got))
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
}
