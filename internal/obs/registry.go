package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A histogram's buckets are log-linear: values below histCols each have a
// bucket of their own, and every octave above, [2^k, 2^(k+1)) for
// k >= histSubBits, is cut into histCols equal buckets. A bucket's
// midpoint is then within 1/(2·histCols) of any value in it: 1.6 % for 32
// columns. Row 0 holds the values below histCols and row r >= 1 the octave
// of bits.Len64 = r + histSubBits, so 60 rows cover the whole uint64 range
// and there is never an overflow bucket to reason about. (histRows rounds
// the 60 up to a power of two, so that a mask, not a bounds check, keeps a
// row index in range.)
const (
	histSubBits = 5
	histCols    = 1 << histSubBits
	histRows    = 64
)

// histRow is one row's counters. A histogram allocates a row at its first
// observation: a latency histogram touches a few octaves of the sixty.
type histRow [histCols]atomic.Uint64

// Histogram is a streaming histogram over non-negative integer
// observations (typically nanoseconds or record counts) with log-linear
// buckets. An observation is two atomic adds, to the sum and to its
// bucket, plus a row's allocation the first time a value lands in its
// octave; the count is the buckets' sum. Quantiles are estimated from the
// bucket boundaries, within 1.6 % of the true order statistic. A nil
// *Histogram is a no-op.
type Histogram struct {
	sum  atomic.Uint64
	rows [histRows]atomic.Pointer[histRow]
}

// histBucket returns the row and column of v's bucket.
func histBucket(v uint64) (row, col int) {
	if v < histCols {
		return 0, int(v)
	}
	row = bits.Len64(v) - histSubBits
	return row, int(v>>(row-1)) - histCols
}

// histMid returns the midpoint of bucket (row, col), rounded down: the
// value itself in row 0 and in row 1, whose buckets are one wide.
func histMid(row, col int) uint64 {
	if row == 0 {
		return uint64(col)
	}
	lo := uint64(histCols+col) << (row - 1)
	return lo + (uint64(1)<<(row-1))/2
}

// Observe records one observation (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum.Add(uint64(v))
	row, col := histBucket(uint64(v))
	r := h.rows[row&(histRows-1)].Load()
	if r == nil {
		r = h.newRow(row)
	}
	r[col&(histCols-1)].Add(1)
}

// newRow installs row's counters, or returns those another observer
// installed first.
func (h *Histogram) newRow(row int) *histRow {
	r := new(histRow)
	if h.rows[row].CompareAndSwap(nil, r) {
		return r
	}
	return h.rows[row].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for row := range h.rows {
		if r := h.rows[row].Load(); r != nil {
			for col := range r {
				n += r[col].Load()
			}
		}
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) as the midpoint of the
// bucket the q-th observation falls in. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for row := range h.rows {
		r := h.rows[row].Load()
		if r == nil {
			continue
		}
		for col := range r {
			if cum += r[col].Load(); cum >= rank {
				return histMid(row, col)
			}
		}
	}
	return 0
}

// metricKind discriminates registry entries for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series: a name, optional label pairs, and
// exactly one of the three handle kinds.
type metric struct {
	name   string
	labels []string // k1, v1, k2, v2, ...
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// series renders the full series name, e.g. `hurricane_core_clones_total{job="q1"}`.
func (m *metric) series() string {
	if len(m.labels) == 0 {
		return m.name
	}
	var b strings.Builder
	b.WriteString(m.name)
	b.WriteByte('{')
	for i := 0; i+1 < len(m.labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", m.labels[i], m.labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds named metric series. Registration (Counter/Gauge/
// Histogram) takes a lock and is meant for setup paths; the returned
// handles are lock-free. Registering the same name+labels twice returns
// the same handle, so concurrent per-job setup is safe. A nil *Registry
// is a no-op registry that hands out nil (no-op) handles.
type Registry struct {
	mu      sync.Mutex
	order   []string // series keys in first-registration order
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// lookup finds or creates the series. kind mismatches on an existing
// name are a programming error; the existing handle wins and the caller
// gets a nil handle of the requested kind (no-op) rather than a panic.
func (r *Registry) lookup(name string, kind metricKind, labels []string) *metric {
	m := &metric{name: name, labels: labels, kind: kind}
	key := m.series()
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.metrics[key]; ok {
		return got
	}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter registers (or looks up) a counter series. labels are
// key/value pairs ("job", "q1"). Cache the handle; do not call on a hot
// path.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, labels).c
}

// Gauge registers (or looks up) a gauge series.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, labels).g
}

// Histogram registers (or looks up) a histogram series.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, labels).h
}

// snapshotInto appends the series' current values as flat name->value
// entries. Histograms flatten to _count, _sum, and _p50/_p95/_p99.
func (m *metric) snapshotInto(out map[string]float64) {
	switch m.kind {
	case kindCounter:
		out[m.series()] = float64(m.c.Value())
	case kindGauge:
		out[m.series()] = float64(m.g.Value())
	case kindHistogram:
		base := metric{name: m.name + "_count", labels: m.labels}
		out[base.series()] = float64(m.h.Count())
		base.name = m.name + "_sum"
		out[base.series()] = float64(m.h.Sum())
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
			base.name = m.name + q.suffix
			out[base.series()] = float64(m.h.Quantile(q.q))
		}
	}
}

// Snapshot returns every series' current value keyed by rendered series
// name. Histograms flatten into _count/_sum/_p50/_p95/_p99 entries.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range r.order {
		r.metrics[key].snapshotInto(out)
	}
	return out
}

// labelValue returns the series' value for a label key ("" if absent).
func (m *metric) labelValue(key string) string {
	for i := 0; i+1 < len(m.labels); i += 2 {
		if m.labels[i] == key {
			return m.labels[i+1]
		}
	}
	return ""
}

// SnapshotFor returns the values of series carrying label key=value,
// plus series that do not carry the label at all (engine-wide globals),
// with the matching label stripped from the rendered keys. This is what
// JobHandle.Metrics uses to narrow the shared registry to one job.
func (r *Registry) SnapshotFor(key, value string) map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sk := range r.order {
		m := r.metrics[sk]
		lv := m.labelValue(key)
		if lv != "" && lv != value {
			continue
		}
		if lv == "" {
			m.snapshotInto(out)
			continue
		}
		stripped := metric{name: m.name, kind: m.kind, c: m.c, g: m.g, h: m.h}
		for i := 0; i+1 < len(m.labels); i += 2 {
			if m.labels[i] != key {
				stripped.labels = append(stripped.labels, m.labels[i], m.labels[i+1])
			}
		}
		stripped.snapshotInto(out)
	}
	return out
}

// WriteText renders the registry in the Prometheus text exposition
// format (untyped lines, stable first-registration order; histogram
// series flatten the same way Snapshot does).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	metrics := make([]*metric, len(keys))
	for i, k := range keys {
		metrics[i] = r.metrics[k]
	}
	r.mu.Unlock()
	for _, m := range metrics {
		flat := make(map[string]float64)
		m.snapshotInto(flat)
		names := make([]string, 0, len(flat))
		for k := range flat {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			v := flat[name]
			if v == math.Trunc(v) {
				if _, err := fmt.Fprintf(w, "%s %d\n", name, int64(v)); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s %g\n", name, v); err != nil {
				return err
			}
		}
	}
	return nil
}
