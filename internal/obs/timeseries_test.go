package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Append("g", float64(i))
	}
	dumps := r.Dump(nil, -1)
	if len(dumps) != 1 {
		t.Fatalf("series = %d, want 1", len(dumps))
	}
	pts := dumps[0].Points
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want ring cap 4", len(pts))
	}
	// Oldest first, and only the newest 4 of the 10 appends survive.
	for i, p := range pts {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("point %d = %v, want %v", i, p.V, want)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TUs < pts[i-1].TUs {
			t.Fatalf("points not time-ordered: %v", pts)
		}
	}
}

// TestRecorderRingGrows: a series holds room for the points it was given,
// not a full ring; past its cap it wraps and dumps oldest-first, and the
// rates derived on the way do not depend on where the ring grew.
func TestRecorderRingGrows(t *testing.T) {
	r := NewRecorder(0)
	r.Append("once", 1)
	if c := cap(r.series["once"].pts); c > 4 {
		t.Fatalf("a once-sampled series holds room for %d points, want at most 4 of %d", c, DefaultPointsPerSeries)
	}

	const limit = 20 // not a power of two: growth 4, 8, 16 must stop at 20
	r = NewRecorder(limit)
	clock := r.start
	r.now = func() time.Time {
		clock = clock.Add(250 * time.Millisecond)
		return clock
	}
	var ops float64
	r.AddSource(func(emit func(string, float64)) { emit("hurricane_x_ops_total", ops) })
	for i := 1; i <= limit+7; i++ {
		ops = float64(100 * i)
		v := r.Sample()
		if rate, ok := v.Rates["hurricane_x_ops_total"]; i > 1 && (!ok || rate != 400) {
			t.Fatalf("sample %d: rate %v (derived %v), want 400/s", i, rate, ok)
		}
	}
	ring := r.series["hurricane_x_ops_total"]
	if len(ring.pts) != limit || cap(ring.pts) != limit {
		t.Fatalf("ring len %d cap %d, want both %d", len(ring.pts), cap(ring.pts), limit)
	}
	d := r.Dump(nil, -1)[0]
	if len(d.Points) != limit || len(d.Rate) != limit-1 {
		t.Fatalf("dump: %d points, %d rates, want %d and %d", len(d.Points), len(d.Rate), limit, limit-1)
	}
	for i, p := range d.Points {
		if want := float64(100 * (8 + i)); p.V != want {
			t.Fatalf("point %d = %v, want %v (oldest first)", i, p.V, want)
		}
	}
	for _, p := range d.Rate {
		if p.V != 400 {
			t.Fatalf("dumped rate %v, want 400/s", p.V)
		}
	}
}

func TestRecorderSeriesCap(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < maxSeries+10; i++ {
		r.Append(fmt.Sprintf("s%d", i), 1)
	}
	if got := len(r.Dump(nil, -1)); got != maxSeries {
		t.Fatalf("retained %d series, want cap %d", got, maxSeries)
	}
	if got := r.DroppedSeries(); got != 10 {
		t.Fatalf("DroppedSeries = %d, want 10", got)
	}
}

func TestRecorderCounterRates(t *testing.T) {
	r := NewRecorder(0)
	// A stepped clock: every reading is 250 ms after the previous one. On
	// the wall clock two back-to-back samples can share a microsecond, and
	// then no rate is derived.
	clock := r.start
	r.now = func() time.Time {
		clock = clock.Add(250 * time.Millisecond)
		return clock
	}
	var ops float64
	r.AddSource(func(emit func(string, float64)) {
		emit("hurricane_x_ops_total", ops)
		emit("hurricane_x_inflight", ops) // gauge: no rate derived
	})

	ops = 100
	v1 := r.Sample()
	if len(v1.Rates) != 0 {
		t.Fatalf("first sample derived rates %v, want none", v1.Rates)
	}
	ops = 300
	v2 := r.Sample()
	rate, ok := v2.Rates["hurricane_x_ops_total"]
	if !ok {
		t.Fatalf("no rate for counter series; rates = %v", v2.Rates)
	}
	// 200 ops over the 250 ms between the two samples.
	if rate != 800 {
		t.Fatalf("rate = %v, want 800/s", rate)
	}
	if _, ok := v2.Rates["hurricane_x_inflight"]; ok {
		t.Fatal("gauge series derived a rate")
	}

	// Counter reset (handle re-created): rate clamps to zero, never
	// negative.
	ops = 50
	v3 := r.Sample()
	if got := v3.Rates["hurricane_x_ops_total"]; got != 0 {
		t.Fatalf("rate after counter reset = %v, want clamp to 0", got)
	}

	// Dump carries the rate track for the counter only.
	dumps := r.Dump([]string{"hurricane_x"}, -1)
	if len(dumps) != 2 {
		t.Fatalf("series = %d, want 2", len(dumps))
	}
	for _, d := range dumps {
		isCounter := d.Name == "hurricane_x_ops_total"
		if d.Counter != isCounter {
			t.Fatalf("%s Counter = %v", d.Name, d.Counter)
		}
		if isCounter && len(d.Rate) != len(d.Points)-1 {
			t.Fatalf("rate track %d entries for %d points", len(d.Rate), len(d.Points))
		}
		if !isCounter && d.Rate != nil {
			t.Fatalf("gauge %s has a rate track", d.Name)
		}
	}
}

func TestRecorderDumpFilters(t *testing.T) {
	r := NewRecorder(0)
	r.Append("hurricane_a_ops_total", 1)
	r.Append("hurricane_b_heat", 0.5)
	mark := r.NowUs()
	// since= is an exclusive microsecond cutoff; step past the mark so
	// the next append cannot land in the same microsecond tick.
	time.Sleep(2 * time.Millisecond)
	r.Append("hurricane_b_heat", 0.9)

	if got := r.Dump([]string{"b_heat"}, -1); len(got) != 1 || got[0].Name != "hurricane_b_heat" {
		t.Fatalf("filter dump = %+v", got)
	}
	got := r.Dump([]string{"b_heat"}, mark)
	if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0].V != 0.9 {
		t.Fatalf("since dump = %+v", got)
	}
	// A series entirely before the cutoff is omitted, not empty.
	if got := r.Dump([]string{"a_ops"}, mark); len(got) != 0 {
		t.Fatalf("stale series dump = %+v", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.AddSource(RegistrySource(nil))
	r.Append("x", 1)
	if v := r.Sample(); v != nil {
		t.Fatalf("nil recorder Sample = %v", v)
	}
	if d := r.Dump(nil, -1); d != nil {
		t.Fatalf("nil recorder Dump = %v", d)
	}
	if r.Samples() != 0 || r.DroppedSeries() != 0 || r.NowUs() != 0 {
		t.Fatal("nil recorder counters not zero")
	}
}

// TestRecorderConcurrent exercises sample/append/scrape under the race
// detector: one goroutine sampling a registry source, one appending
// event-driven points, one dumping.
func TestRecorderConcurrent(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("hurricane_t_ops_total")
	r := NewRecorder(32)
	r.AddSource(RegistrySource(reg))

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch w {
				case 0:
					ctr.Inc()
					r.Sample()
				case 1:
					r.Append("hurricane_t_window_ms", float64(i))
				default:
					r.Dump(nil, -1)
					r.Dump([]string{"window"}, r.NowUs()-1000)
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Samples() != 200 {
		t.Fatalf("Samples = %d, want 200", r.Samples())
	}
}
