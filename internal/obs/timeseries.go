package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// The time dimension of the observability layer. Every other obs surface
// is a point-in-time snapshot — the Recorder turns those snapshots into
// bounded per-series histories by sampling registered sources on a fixed
// interval, so a live run (and the watchdog layer on top, watch.go) can
// see when an edge got hot, how fast a counter is moving, and whether a
// gauge is drifting. Design constraints match the rest of obs: nil-safe
// everywhere, bounded memory (rings capped per series, a hard series cap),
// and cheap — one sample is one Registry.Snapshot plus map/ring appends,
// far off any hot path.

// Point is one sampled value of one series. TUs is microseconds since
// the recorder was created (monotonic, comparable to trace TMicros
// deltas but on the recorder's own clock).
type Point struct {
	TUs int64   `json:"t_us"`
	V   float64 `json:"v"`
}

// Source is a sampling callback: it emits the current value of every
// series it knows into emit. Sources run on the sampler's goroutine at
// every Sample call; they must be cheap and must not block on I/O.
type Source func(emit func(series string, v float64))

// RegistrySource samples every series of a metrics registry (histograms
// flattened exactly like Registry.Snapshot). A nil registry yields an
// empty source.
func RegistrySource(reg *Registry) Source {
	return func(emit func(string, float64)) {
		for series, v := range reg.Snapshot() {
			emit(series, v)
		}
	}
}

const (
	// DefaultPointsPerSeries is the per-series ring capacity when
	// NewRecorder is given cap <= 0 (at the engine's default 250ms
	// sample interval: a bit over two minutes of history).
	DefaultPointsPerSeries = 512
	// maxSeries bounds how many distinct series a recorder will track.
	// Past it, new series are dropped and counted (DroppedSeries) —
	// unbounded label growth (per-window jobs and their edges)
	// must not grow recorder memory without bound.
	maxSeries = 2048
)

// seriesRing is one series' bounded point history: a buffer that grows as
// points arrive, up to the recorder's cap, and is then a circular buffer,
// oldest overwritten first. A series sampled a few times holds a few
// points, not a full ring.
type seriesRing struct {
	pts  []Point
	head int   // index of the oldest point when full
	last Point // most recent point (valid when pts is non-empty)
}

// append adds p, overwriting the oldest point once limit are held.
func (s *seriesRing) append(p Point, limit int) {
	n := len(s.pts)
	if n < limit {
		if n == cap(s.pts) {
			grown := make([]Point, n, min(max(2*n, 4), limit))
			copy(grown, s.pts)
			s.pts = grown
		}
		s.pts = append(s.pts, p)
	} else {
		s.pts[s.head] = p
		s.head = (s.head + 1) % n
	}
	s.last = p
}

// dump copies the retained points oldest-first, skipping points at or
// before sinceUs (pass a negative sinceUs for everything).
func (s *seriesRing) dump(sinceUs int64) []Point {
	n := len(s.pts)
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		p := s.pts[(s.head+i)%n]
		if p.TUs > sinceUs {
			out = append(out, p)
		}
	}
	return out
}

// SampleView is what one Sample observed: the flat series->value map of
// the sample, plus per-second rates for counter-like series (derived
// against the previous sample of the same series; absent on a series'
// first sample). The watchdog evaluates rules against one view per
// sample tick.
type SampleView struct {
	// TUs is the sample time, microseconds on the recorder clock.
	TUs    int64
	Values map[string]float64
	Rates  map[string]float64
}

// CounterSeries reports whether a flattened series key is monotonic —
// the engine's naming scheme puts _total on counters, and the registry
// flattens histograms into monotonic _count/_sum components. Rates are
// derived only for these.
func CounterSeries(series string) bool {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	return strings.HasSuffix(name, "_total") ||
		strings.HasSuffix(name, "_count") ||
		strings.HasSuffix(name, "_sum")
}

// Recorder samples Sources into bounded per-series rings. A nil
// *Recorder is a no-op (Sample returns nil, Append does nothing), so an
// unsampled deployment pays one nil check. All methods are safe for
// concurrent use; Sample is typically called by one sampler goroutine
// while HTTP scrapes read concurrently.
type Recorder struct {
	start time.Time
	// now is the recorder's clock (time.Now outside tests). Rates divide
	// by the gap between two samples on it, and two samples within one
	// microsecond derive none, so a test that asserts on rates steps a
	// clock of its own instead of hoping the wall clock moved.
	now func() time.Time

	mu            sync.Mutex
	cap           int
	series        map[string]*seriesRing
	order         []string
	sources       []Source
	samples       uint64
	droppedSeries uint64
}

// NewRecorder returns a recorder whose series retain up to pointsPerSeries
// points (<= 0 selects DefaultPointsPerSeries).
func NewRecorder(pointsPerSeries int) *Recorder {
	if pointsPerSeries <= 0 {
		pointsPerSeries = DefaultPointsPerSeries
	}
	return &Recorder{
		start:  time.Now(),
		now:    time.Now,
		cap:    pointsPerSeries,
		series: make(map[string]*seriesRing),
	}
}

// AddSource registers a sampling source. Call during setup; sources run
// in registration order on every Sample.
func (r *Recorder) AddSource(s Source) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, s)
	r.mu.Unlock()
}

// NowUs returns the current time on the recorder clock.
func (r *Recorder) NowUs() int64 {
	if r == nil {
		return 0
	}
	return r.now().Sub(r.start).Microseconds()
}

// ring returns the series' ring, creating it if the series cap allows.
// Caller holds r.mu.
func (r *Recorder) ringLocked(series string) *seriesRing {
	ring := r.series[series]
	if ring == nil {
		if len(r.series) >= maxSeries {
			r.droppedSeries++
			return nil
		}
		ring = &seriesRing{}
		r.series[series] = ring
		r.order = append(r.order, series)
	}
	return ring
}

// Sample runs every source once, appends the observed values to their
// rings, and returns the sample's view (values plus derived counter
// rates). Returns nil on a nil recorder.
func (r *Recorder) Sample() *SampleView {
	if r == nil {
		return nil
	}
	// Collect outside the lock: sources may take their own locks
	// (Registry.Snapshot, master EdgeMemory) and must not nest inside
	// ours.
	r.mu.Lock()
	sources := r.sources
	r.mu.Unlock()
	view := &SampleView{
		Values: make(map[string]float64),
		Rates:  make(map[string]float64),
	}
	for _, src := range sources {
		src(func(series string, v float64) { view.Values[series] = v })
	}
	view.TUs = r.NowUs()

	r.mu.Lock()
	defer r.mu.Unlock()
	for series, v := range view.Values {
		ring := r.ringLocked(series)
		if ring == nil {
			continue
		}
		if len(ring.pts) > 0 && CounterSeries(series) {
			prev := ring.last
			if dt := float64(view.TUs-prev.TUs) / 1e6; dt > 0 {
				rate := (v - prev.V) / dt
				if rate < 0 {
					rate = 0 // counter handle re-created; clamp the reset
				}
				view.Rates[series] = rate
			}
		}
		ring.append(Point{TUs: view.TUs, V: v}, r.cap)
	}
	r.samples++
	return view
}

// Append records one event-driven point outside the sampling cadence —
// the streaming subsystem uses it to put every completed window's
// latency and record count on the timeline at the moment the window
// finishes, rather than wherever the next sample tick lands.
func (r *Recorder) Append(series string, v float64) {
	if r == nil {
		return
	}
	now := r.NowUs()
	r.mu.Lock()
	defer r.mu.Unlock()
	if ring := r.ringLocked(series); ring != nil {
		ring.append(Point{TUs: now, V: v}, r.cap)
	}
}

// Samples returns how many Sample calls completed.
func (r *Recorder) Samples() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// DroppedSeries returns how many series were discarded at the series cap.
func (r *Recorder) DroppedSeries() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedSeries
}

// SeriesDump is one series' retained history, oldest first. Rate is the
// derived per-second rate between consecutive points, populated only for
// counter-like series (one fewer entry than Points).
type SeriesDump struct {
	Name    string  `json:"name"`
	Counter bool    `json:"counter,omitempty"`
	Points  []Point `json:"points"`
	Rate    []Point `json:"rate,omitempty"`
}

// Dump returns the retained history of every series whose key contains
// any of the given substrings (no filters = every series), skipping
// points at or before sinceUs (negative = all), sorted by series name.
// Counter-like series carry a derived rate track.
func (r *Recorder) Dump(filters []string, sinceUs int64) []SeriesDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SeriesDump, 0, len(r.order))
	for _, name := range r.order {
		if !matchesAny(name, filters) {
			continue
		}
		// Dump all points first: the rate between the first in-window
		// point and its predecessor needs the predecessor's value.
		all := r.series[name].dump(-1)
		d := SeriesDump{Name: name, Counter: CounterSeries(name)}
		if d.Counter {
			for i := 1; i < len(all); i++ {
				if all[i].TUs <= sinceUs {
					continue
				}
				if dt := float64(all[i].TUs-all[i-1].TUs) / 1e6; dt > 0 {
					rate := (all[i].V - all[i-1].V) / dt
					if rate < 0 {
						rate = 0
					}
					d.Rate = append(d.Rate, Point{TUs: all[i].TUs, V: rate})
				}
			}
		}
		for _, p := range all {
			if p.TUs > sinceUs {
				d.Points = append(d.Points, p)
			}
		}
		if len(d.Points) == 0 {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// matchesAny reports whether name contains any filter substring (or no
// filters were given).
func matchesAny(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if f != "" && strings.Contains(name, f) {
			return true
		}
	}
	return false
}
