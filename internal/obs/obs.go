// Package obs is the engine's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, streaming histograms) and a
// bounded structured event trace. Every layer that makes a runtime
// decision — the control plane, the master, the shuffle writers, the
// multi-job scheduler, the streaming pump, the query planner — records
// what it decided and why through one Observer, so a live run can answer
// the questions the paper answers with figures: which partitions ran
// hot, which keys were heavy, when clones fired and when they were
// preempted.
//
// Design constraints, in order:
//
//  1. The hot path must stay hot. Counter/gauge/histogram updates are
//     single atomic operations on handles the caller registered once and
//     cached; there is no map lookup and no lock on the update path.
//  2. Disabled must be free-ish. Every handle method is nil-safe, and a
//     nil *Observer hands out nil handles, so an uninstrumented run pays
//     one predictable nil check per update site.
//  3. Bounded memory. The event trace is a fixed-size ring that sheds
//     load past capacity rather than blocking or reallocating: lifecycle
//     chatter is dropped, control-plane decision events displace the
//     oldest lifecycle entries (all displacement is counted); the
//     registry grows only at registration sites.
//
// Metric names follow the scheme hurricane_<layer>_<name>, with _total
// suffixes on monotonic counters, rendered in the Prometheus text
// exposition format by Registry.WriteText.
package obs

// Observer bundles the metrics registry and the event trace that one
// cluster shares across all of its jobs and layers. A nil *Observer is a
// valid no-op observer: every method on it, and every handle it returns,
// is safe to call and does nothing.
type Observer struct {
	reg   *Registry
	trace *Trace
}

// New returns an enabled observer with the given trace capacity
// (traceCap <= 0 selects DefaultTraceCap).
func New(traceCap int) *Observer {
	o := &Observer{reg: NewRegistry(), trace: NewTrace(traceCap)}
	// Ring pressure is itself a signal worth watching: mirror trace
	// displacement into a registry counter so /metrics scrapes see it
	// without touching Go APIs.
	o.trace.BindDropCounter(o.reg.Counter("hurricane_trace_dropped_total"))
	return o
}

// Registry returns the observer's metrics registry (nil for a nil
// observer — and a nil *Registry is itself a no-op registry).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the observer's event trace (nil for a nil observer —
// and a nil *Trace is itself a no-op trace).
func (o *Observer) Tracer() *Trace {
	if o == nil {
		return nil
	}
	return o.trace
}

// Counter registers (or looks up) a counter. Call once and cache the
// handle; the handle's Add/Inc are the hot-path operations.
func (o *Observer) Counter(name string, labels ...string) *Counter {
	return o.Registry().Counter(name, labels...)
}

// Gauge registers (or looks up) a gauge.
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	return o.Registry().Gauge(name, labels...)
}

// Histogram registers (or looks up) a histogram.
func (o *Observer) Histogram(name string, labels ...string) *Histogram {
	return o.Registry().Histogram(name, labels...)
}

// Emit appends a typed event to the trace (no-op on a nil observer).
func (o *Observer) Emit(typ EventType, job, subject, detail string) {
	o.Tracer().Emit(typ, job, subject, detail)
}
