package storage

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// DebugHandler returns the HTTP handler a standalone storage process
// (cmd/hurricane-storage -debug) mounts for live observability:
//
//	/metrics        Prometheus text exposition of the node's bound
//	                observer (hurricane_storage_op_* series from the
//	                node and TCP-server meters)
//	/debug/storage  the Node.Stats JSON summary: per-bag chunk/byte
//	                counts, stored and taken, node totals, sketch edge count
//
// When BindTelemetry has attached a recorder and watchdog, the
// continuous-telemetry surfaces are live too — the same three the
// cluster mux serves, so one dashboard works against either process:
//
//	/debug/timeseries  sampled metric history (?series=, ?since=)
//	/debug/alerts      watchdog rules, states, raised alerts
//	/debug/dash        the self-contained live dashboard page
//
// Handlers read the same structures the request path writes, so they
// are safe against a serving node. The registry is empty until Bind is
// called.
func (n *Node) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	// Resolve the recorder/watch per request: BindTelemetry may run
	// after the mux was built.
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, r *http.Request) {
		obs.TimeseriesHandler(n.Recorder()).ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/alerts", func(w http.ResponseWriter, r *http.Request) {
		obs.AlertsHandler(n.Watch()).ServeHTTP(w, r)
	})
	mux.Handle("/debug/dash", obs.DashHandler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = n.Observer().Registry().WriteText(w)
	})
	mux.HandleFunc("/debug/storage", func(w http.ResponseWriter, r *http.Request) {
		st := n.Stats()
		if st.Bags == nil {
			st.Bags = []BagStats{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	return mux
}
