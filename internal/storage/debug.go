package storage

import (
	"encoding/json"
	"net/http"
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
// Handlers read the same structures the request path writes, so they
// are safe against a serving node. The registry is empty until Bind is
// called.
func (n *Node) DebugHandler() http.Handler {
	mux := http.NewServeMux()
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
