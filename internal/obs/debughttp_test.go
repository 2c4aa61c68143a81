package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTimeseriesHandler(t *testing.T) {
	rec := NewRecorder(0)
	// Two appends within one wall-clock microsecond derive no rate.
	clock := rec.start
	rec.now = func() time.Time {
		clock = clock.Add(250 * time.Millisecond)
		return clock
	}
	rec.Append("hurricane_a_ops_total", 1)
	rec.Append("hurricane_a_ops_total", 5)
	rec.Append("hurricane_b_heat", 0.7)

	get := func(url string) timeseriesDoc {
		t.Helper()
		w := httptest.NewRecorder()
		TimeseriesHandler(rec).ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		var doc timeseriesDoc
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return doc
	}

	doc := get("/debug/timeseries")
	if len(doc.Series) != 2 {
		t.Fatalf("series = %+v, want 2", doc.Series)
	}
	// Sorted by name; the counter carries its rate track.
	if doc.Series[0].Name != "hurricane_a_ops_total" || !doc.Series[0].Counter {
		t.Fatalf("series[0] = %+v", doc.Series[0])
	}
	if len(doc.Series[0].Points) != 2 || len(doc.Series[0].Rate) != 1 {
		t.Fatalf("counter tracks = %+v", doc.Series[0])
	}

	if doc = get("/debug/timeseries?series=b_heat"); len(doc.Series) != 1 || doc.Series[0].Name != "hurricane_b_heat" {
		t.Fatalf("filtered = %+v", doc.Series)
	}
	if doc = get("/debug/timeseries?since=" + itoa(rec.NowUs())); len(doc.Series) != 0 {
		t.Fatalf("future since returned %+v", doc.Series)
	}

	w := httptest.NewRecorder()
	TimeseriesHandler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/timeseries?since=xyz", nil))
	if w.Code != 400 {
		t.Fatalf("bad since = %d, want 400", w.Code)
	}

	// A nil recorder (sampler disabled) serves an empty document, not a
	// panic or error.
	w = httptest.NewRecorder()
	TimeseriesHandler(nil).ServeHTTP(w, httptest.NewRequest("GET", "/debug/timeseries", nil))
	if w.Code != 200 {
		t.Fatalf("nil recorder = %d", w.Code)
	}
}

func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestAlertsHandler(t *testing.T) {
	o := New(0)
	w := NewWatch(o, []Rule{{
		Name: "hot", Kind: KindThreshold, Series: "hurricane_x_share", Threshold: 0.5,
	}})
	w.Eval(view(1, map[string]float64{"hurricane_x_share": 0.9}, nil))
	w.Eval(view(2, map[string]float64{"hurricane_x_share": 0.2}, nil)) // resolves
	w.Eval(view(3, map[string]float64{"hurricane_x_share": 0.9}, nil)) // re-fires

	get := func(url string) Status {
		t.Helper()
		rr := httptest.NewRecorder()
		AlertsHandler(w).ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s = %d", url, rr.Code)
		}
		var s Status
		if err := json.Unmarshal(rr.Body.Bytes(), &s); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return s
	}

	s := get("/debug/alerts")
	if s.Evals != 3 || len(s.Rules) != 1 || len(s.Alerts) != 2 {
		t.Fatalf("status = evals %d rules %d alerts %d", s.Evals, len(s.Rules), len(s.Alerts))
	}
	if len(s.States) != 1 || !s.States[0].Firing || s.States[0].Count != 2 {
		t.Fatalf("states = %+v", s.States)
	}
	if s = get("/debug/alerts?firing=1"); len(s.Alerts) != 1 || s.Alerts[0].ResolvedUs != 0 {
		t.Fatalf("firing filter = %+v", s.Alerts)
	}

	// Nil watch (sampler disabled): empty document.
	rr := httptest.NewRecorder()
	AlertsHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rr.Code != 200 {
		t.Fatalf("nil watch = %d", rr.Code)
	}
}

func TestDashHandler(t *testing.T) {
	w := httptest.NewRecorder()
	DashHandler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/dash", nil))
	if w.Code != 200 {
		t.Fatalf("dash = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content-type = %q", ct)
	}
	body := w.Body.String()
	// Self-contained: polls its sibling endpoints, draws its own
	// sparklines, references no external assets.
	for _, want := range []string{"<!doctype html", `fetch("timeseries"`, `fetch("alerts")`, "<canvas"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dash page missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "<script src", "@import"} {
		if strings.Contains(body, banned) {
			t.Fatalf("dash page references external asset (%q)", banned)
		}
	}
}
