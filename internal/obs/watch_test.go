package obs

import (
	"strings"
	"testing"
)

// view builds a SampleView by hand for rule-evaluation tests.
func view(t int64, values, rates map[string]float64) *SampleView {
	if values == nil {
		values = map[string]float64{}
	}
	if rates == nil {
		rates = map[string]float64{}
	}
	return &SampleView{TUs: t, Values: values, Rates: rates}
}

func TestWatchThresholdRuleFiresAndResolves(t *testing.T) {
	o := New(0)
	w := NewWatch(o, []Rule{{
		Name: "hot", Kind: KindThreshold,
		Series: "hurricane_skew_partition_top_share", Threshold: 0.5, For: 2,
	}})
	series := `hurricane_skew_partition_top_share{edge="e",job="j"}`

	// One hot sample: armed but not firing (For: 2).
	w.Eval(view(1, map[string]float64{series: 0.9}, nil))
	if s := w.Snapshot(); len(s.Alerts) != 0 {
		t.Fatalf("alert after 1/2 samples: %+v", s.Alerts)
	}
	// Second consecutive: fires once.
	w.Eval(view(2, map[string]float64{series: 0.8}, nil))
	// Still hot: no duplicate alert.
	w.Eval(view(3, map[string]float64{series: 0.8}, nil))
	s := w.Snapshot()
	if len(s.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly 1", s.Alerts)
	}
	a := s.Alerts[0]
	if a.Rule != "hot" || a.Series != series || a.Value != 0.8 || a.ResolvedUs != 0 {
		t.Fatalf("alert = %+v", a)
	}

	// The counter bumped once, labeled by rule.
	if got := o.Registry().Snapshot()[`hurricane_watch_alerts_total{rule="hot"}`]; got != 1 {
		t.Fatalf("alerts counter = %v, want 1", got)
	}

	// The trace carries a decision-class AlertRaised event.
	evs := o.Tracer().Events("", EvAlertRaised)
	if len(evs) != 1 {
		t.Fatalf("AlertRaised events = %+v, want 1", evs)
	}
	if evs[0].Subject != "hot" || !strings.Contains(evs[0].Detail, "value=0.8") {
		t.Fatalf("event = %+v", evs[0])
	}
	if !decisionEvent(EvAlertRaised) {
		t.Fatal("EvAlertRaised is not decision-class")
	}

	// Cooling below threshold resolves the alert in the history.
	w.Eval(view(4, map[string]float64{series: 0.1}, nil))
	s = w.Snapshot()
	if s.Alerts[0].ResolvedUs != 4 {
		t.Fatalf("alert not resolved: %+v", s.Alerts[0])
	}
	// Re-heating for two samples raises a second alert.
	w.Eval(view(5, map[string]float64{series: 0.9}, nil))
	w.Eval(view(6, map[string]float64{series: 0.9}, nil))
	if s = w.Snapshot(); len(s.Alerts) != 2 {
		t.Fatalf("alerts after re-fire = %+v, want 2", s.Alerts)
	}
}

func TestWatchRateRule(t *testing.T) {
	w := NewWatch(nil, []Rule{{
		Name: "drops", Kind: KindRate,
		Series: "hurricane_trace_dropped_total", Threshold: 50,
	}})
	// Rates (not raw values) drive the rule.
	w.Eval(view(1, map[string]float64{"hurricane_trace_dropped_total": 1e6}, nil))
	if s := w.Snapshot(); len(s.Alerts) != 0 {
		t.Fatalf("rate rule fired on raw value: %+v", s.Alerts)
	}
	w.Eval(view(2, nil, map[string]float64{"hurricane_trace_dropped_total": 80}))
	s := w.Snapshot()
	if len(s.Alerts) != 1 || s.Alerts[0].Value != 80 {
		t.Fatalf("alerts = %+v", s.Alerts)
	}
}

func TestWatchRatioRule(t *testing.T) {
	w := NewWatch(nil, []Rule{{
		Name: "straggler", Kind: KindRatio,
		Num: "hurricane_core_task_span_ns_p99", Den: "hurricane_core_task_span_ns_p50",
		Threshold: 4, DenMin: 1e5,
	}})
	lbl := `{job="j"}`
	// Denominator below DenMin: skipped, no matter the ratio.
	w.Eval(view(1, map[string]float64{
		"hurricane_core_task_span_ns_p99" + lbl: 1e6,
		"hurricane_core_task_span_ns_p50" + lbl: 10,
	}, nil))
	if s := w.Snapshot(); len(s.Alerts) != 0 {
		t.Fatalf("ratio fired under DenMin: %+v", s.Alerts)
	}
	// Labels must join: a p99 with no matching p50 label-set is skipped.
	w.Eval(view(2, map[string]float64{
		"hurricane_core_task_span_ns_p99" + lbl:        1e7,
		`hurricane_core_task_span_ns_p50{job="other"}`: 1e6,
	}, nil))
	if s := w.Snapshot(); len(s.Alerts) != 0 {
		t.Fatalf("ratio fired across label-sets: %+v", s.Alerts)
	}
	// 10x spread over a real denominator: fires.
	w.Eval(view(3, map[string]float64{
		"hurricane_core_task_span_ns_p99" + lbl: 1e7,
		"hurricane_core_task_span_ns_p50" + lbl: 1e6,
	}, nil))
	s := w.Snapshot()
	if len(s.Alerts) != 1 || s.Alerts[0].Value != 10 {
		t.Fatalf("alerts = %+v", s.Alerts)
	}
	if s.Alerts[0].Series != "hurricane_core_task_span_ns_p99"+lbl {
		t.Fatalf("alert series = %q", s.Alerts[0].Series)
	}
}

func TestWatchDefaultRulesCoverBuiltins(t *testing.T) {
	names := map[string]bool{}
	for _, r := range DefaultRules() {
		names[r.Name] = true
	}
	for _, want := range []string{
		"straggler-task-time",
		"storage-slow-ops", "lease-starvation", "trace-drops",
	} {
		if !names[want] {
			t.Fatalf("DefaultRules missing %q (have %v)", want, names)
		}
	}
}

func TestWatchNilSafe(t *testing.T) {
	var w *Watch
	w.Eval(view(1, map[string]float64{"x": 1}, nil))
	w.Eval(nil)
	if s := w.Snapshot(); s.Evals != 0 || s.Alerts != nil {
		t.Fatalf("nil watch snapshot = %+v", s)
	}
	if w.Rules() != nil || w.Evals() != 0 {
		t.Fatal("nil watch accessors not zero")
	}
	// A real watch evaluating a nil view (sampler off) is also a no-op.
	w2 := NewWatch(nil, nil)
	w2.Eval(nil)
	if w2.Evals() != 0 {
		t.Fatal("nil view counted as an eval")
	}
}
