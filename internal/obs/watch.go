package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The anomaly layer on top of the Recorder: declarative rules evaluated
// against every SampleView. A rule describes a condition over one series
// (threshold on a value, rate-of-change of a counter) or a pair of
// series (ratio), matched by metric base name so one rule covers every
// label-set of a metric. A rule that holds for RuleFor consecutive
// samples raises: it emits an EvAlertRaised trace event (decision-class,
// so the alert survives ring eviction alongside the mitigation decisions
// it points at) and bumps hurricane_watch_alerts_total{rule}. The rule
// stays "firing" until a sample no longer satisfies it, so a sustained
// condition is one alert, not one per tick.

// RuleKind selects how a Rule's condition is evaluated.
type RuleKind string

const (
	// KindThreshold fires when a series' sampled value crosses the
	// threshold.
	KindThreshold RuleKind = "threshold"
	// KindRate fires when a counter series' derived per-second rate
	// crosses the threshold.
	KindRate RuleKind = "rate"
	// KindRatio fires when Num/Den crosses the threshold. Num and Den
	// are metric base names joined per label-set; OfRates divides the
	// derived rates instead of the raw values.
	KindRatio RuleKind = "ratio"
)

// Rule is one declarative watchdog condition.
type Rule struct {
	// Name identifies the rule in alerts, traces, and metrics labels.
	Name string   `json:"name"`
	Kind RuleKind `json:"kind"`
	// Series is the metric base name (no labels) a threshold/rate rule
	// watches; every label-set of the metric is evaluated independently.
	Series string `json:"series,omitempty"`
	// Num and Den are the metric base names of a ratio rule, joined on
	// identical label suffix (p99/p50 of the same histogram, denials vs
	// grants of the same job).
	Num string `json:"num,omitempty"`
	Den string `json:"den,omitempty"`
	// OfRates makes a ratio rule divide derived per-second rates rather
	// than raw sampled values.
	OfRates bool `json:"of_rates,omitempty"`
	// Threshold is the boundary; the condition holds when the evaluated
	// quantity is >= Threshold.
	Threshold float64 `json:"threshold"`
	// DenMin gates a ratio rule: the denominator must be >= DenMin or
	// the sample is skipped (keeps p99/p50 quiet on empty histograms and
	// rate ratios quiet on idle clusters).
	DenMin float64 `json:"den_min,omitempty"`
	// NumMin gates any rule: the numerator (or the watched value) must
	// be >= NumMin or the sample is skipped.
	NumMin float64 `json:"num_min,omitempty"`
	// For is how many consecutive satisfying samples arm the alert
	// (<= 1 fires on the first).
	For int `json:"for,omitempty"`
	// Help is a one-line operator-facing description.
	Help string `json:"help,omitempty"`
}

// DefaultRules returns the built-in watchdogs every process runs.
// Thresholds are deliberately conservative — these flag conditions the
// control plane should already be mitigating (stragglers) or that mean
// telemetry itself is degrading (trace drops, slow storage ops). A cluster
// adds the shuffle-heat rule, whose threshold is its split policy's.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "straggler-task-time", Kind: KindRatio,
			Num: "hurricane_core_task_span_ns_p99", Den: "hurricane_core_task_span_ns_p50",
			Threshold: 4, DenMin: 1e5, For: 2,
			Help: "p99 task wall time is >=4x p50 — stragglers the clone/split policies should be absorbing",
		},
		{
			Name: "storage-slow-ops", Kind: KindRate,
			Series:    "hurricane_storage_slow_ops_total",
			Threshold: 5, For: 2,
			Help: "storage ops are exceeding the slow-op threshold at >=5/s",
		},
		{
			Name: "lease-starvation", Kind: KindRatio,
			Num: "hurricane_sched_lease_denials_total", Den: "hurricane_sched_lease_grants_total",
			OfRates: true, Threshold: 2, DenMin: 0.5, NumMin: 1, For: 2,
			Help: "a job's lease denials are outpacing grants >=2x — fair-share starvation",
		},
		{
			Name: "trace-drops", Kind: KindRate,
			Series:    "hurricane_trace_dropped_total",
			Threshold: 50, For: 2,
			Help: "the trace ring is shedding >=50 events/s — raise the ring cap or filter emitters",
		},
	}
}

// Alert is one raised (or historical) alert of a rule on one series
// label-set.
type Alert struct {
	Rule   string  `json:"rule"`
	Series string  `json:"series"`
	Value  float64 `json:"value"`
	// Threshold echoes the rule's boundary at raise time.
	Threshold float64 `json:"threshold"`
	// RaisedUs is the recorder-clock sample time that armed the alert.
	RaisedUs int64 `json:"raised_us"`
	// ResolvedUs is when the condition stopped holding (0 while firing).
	ResolvedUs int64 `json:"resolved_us,omitempty"`
}

// alertState tracks one (rule, series) pair across samples.
type alertState struct {
	consecutive int
	firing      bool
	count       uint64
	lastValue   float64
	lastUs      int64
}

// maxAlertHistory bounds the retained raised-alert log (oldest dropped).
const maxAlertHistory = 256

// maxWatchStates bounds the per-(rule,series) state map — runaway label
// cardinality must not grow the watchdog without bound.
const maxWatchStates = 4096

// Watch evaluates rules against sample views. A nil *Watch is a no-op.
// Eval is called from the sampler goroutine; readers (HTTP) are safe
// concurrently.
type Watch struct {
	o     *Observer
	rules []Rule

	mu      sync.Mutex
	states  map[string]*alertState // "rule|series"
	history []Alert
	firing  map[string]*Alert // "rule|series" -> entry in history
	evals   uint64
	ctrs    map[string]*Counter // per-rule hurricane_watch_alerts_total
}

// NewWatch returns a watchdog reporting through o (trace event + alert
// counter; o may be nil for a metrics-less watchdog) evaluating the given
// rules (nil selects DefaultRules).
func NewWatch(o *Observer, rules []Rule) *Watch {
	if rules == nil {
		rules = DefaultRules()
	}
	w := &Watch{
		o:      o,
		rules:  rules,
		states: make(map[string]*alertState),
		firing: make(map[string]*Alert),
		ctrs:   make(map[string]*Counter),
	}
	for _, r := range rules {
		w.ctrs[r.Name] = o.Counter("hurricane_watch_alerts_total", "rule", r.Name)
	}
	return w
}

// Rules returns the watchdog's rule set.
func (w *Watch) Rules() []Rule {
	if w == nil {
		return nil
	}
	return w.rules
}

// Evals returns how many sample views were evaluated.
func (w *Watch) Evals() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.evals
}

// baseName splits a flattened series key into metric base name and label
// suffix ("{...}" or "").
func baseName(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// Eval evaluates every rule against one sample view. Call once per
// Sample; a nil view (nil recorder) is a no-op.
func (w *Watch) Eval(view *SampleView) {
	if w == nil || view == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.evals++
	for i := range w.rules {
		w.evalRule(&w.rules[i], view)
	}
}

// evalRule evaluates one rule over all matching label-sets of the view.
// Caller holds w.mu.
func (w *Watch) evalRule(r *Rule, view *SampleView) {
	switch r.Kind {
	case KindThreshold, KindRate:
		src := view.Values
		if r.Kind == KindRate {
			src = view.Rates
		}
		for series, v := range src {
			if name, _ := baseName(series); name != r.Series {
				continue
			}
			if v < r.NumMin {
				w.observe(r, series, v, false, view.TUs)
				continue
			}
			w.observe(r, series, v, v >= r.Threshold, view.TUs)
		}
	case KindRatio:
		src := view.Values
		if r.OfRates {
			src = view.Rates
		}
		for series, num := range src {
			name, labels := baseName(series)
			if name != r.Num {
				continue
			}
			den, ok := src[r.Den+labels]
			if !ok || den < r.DenMin || den <= 0 || num < r.NumMin {
				w.observe(r, r.Num+labels, 0, false, view.TUs)
				continue
			}
			ratio := num / den
			w.observe(r, r.Num+labels, ratio, ratio >= r.Threshold, view.TUs)
		}
	}
}

// observe advances one (rule, series) state machine by one sample.
// Caller holds w.mu.
func (w *Watch) observe(r *Rule, series string, v float64, holds bool, tUs int64) {
	key := r.Name + "|" + series
	st := w.states[key]
	if st == nil {
		if len(w.states) >= maxWatchStates {
			return
		}
		st = &alertState{}
		w.states[key] = st
	}
	st.lastValue = v
	st.lastUs = tUs
	if !holds {
		st.consecutive = 0
		if st.firing {
			st.firing = false
			if a := w.firing[key]; a != nil {
				a.ResolvedUs = tUs
				delete(w.firing, key)
			}
		}
		return
	}
	st.consecutive++
	need := r.For
	if need < 1 {
		need = 1
	}
	if st.firing || st.consecutive < need {
		return
	}
	st.firing = true
	st.count++
	alert := Alert{
		Rule: r.Name, Series: series, Value: v,
		Threshold: r.Threshold, RaisedUs: tUs,
	}
	if len(w.history) >= maxAlertHistory {
		w.history = w.history[1:]
	}
	w.history = append(w.history, alert)
	// Appends and shifts move history's backing array; rebuild the
	// firing pointers so resolution writes keep landing in it.
	w.reindexFiring()

	w.ctrs[r.Name].Inc()
	w.o.Emit(EvAlertRaised, "", r.Name,
		fmt.Sprintf("series=%s value=%.4g threshold=%.4g", series, v, r.Threshold))
}

// reindexFiring re-resolves the firing map's pointers into the current
// history backing array after an append or shift. Caller holds w.mu.
func (w *Watch) reindexFiring() {
	for key := range w.firing {
		w.firing[key] = nil
	}
	for i := range w.history {
		a := &w.history[i]
		if a.ResolvedUs == 0 {
			w.firing[a.Rule+"|"+a.Series] = a
		}
	}
	for key, a := range w.firing {
		if a == nil {
			delete(w.firing, key)
		}
	}
}

// RuleState is one (rule, series) pair's current status for /debug/alerts.
type RuleState struct {
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	Value     float64 `json:"value"`
	Firing    bool    `json:"firing"`
	Count     uint64  `json:"count"`
	SampledUs int64   `json:"sampled_us"`
}

// Status is the watchdog's full introspection view.
type Status struct {
	Evals  uint64      `json:"evals"`
	Rules  []Rule      `json:"rules"`
	States []RuleState `json:"states"`
	Alerts []Alert     `json:"alerts"`
}

// Snapshot returns the watchdog status: rule set, every evaluated
// (rule, series) state, and the bounded raised-alert history (oldest
// first).
func (w *Watch) Snapshot() Status {
	if w == nil {
		return Status{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Status{Evals: w.evals, Rules: w.rules}
	s.States = make([]RuleState, 0, len(w.states))
	for key, st := range w.states {
		rule, series, _ := strings.Cut(key, "|")
		s.States = append(s.States, RuleState{
			Rule: rule, Series: series, Value: st.lastValue,
			Firing: st.firing, Count: st.count, SampledUs: st.lastUs,
		})
	}
	sort.Slice(s.States, func(a, b int) bool {
		if s.States[a].Rule != s.States[b].Rule {
			return s.States[a].Rule < s.States[b].Rule
		}
		return s.States[a].Series < s.States[b].Series
	})
	s.Alerts = append([]Alert(nil), w.history...)
	return s
}
