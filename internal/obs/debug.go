package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	httppprof "net/http/pprof"
)

// DebugMux builds the debug HTTP handler: /debug/streak (the recorder's
// live report as JSON), /debug/vars (Go's expvar runtime variables), and
// the net/http/pprof family under /debug/pprof/.
func DebugMux(r *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/streak", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Report())
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// ServeDebug starts the debug endpoint on addr (use port 0 for an
// OS-assigned port) and returns the server plus the bound address. The
// caller owns shutdown via srv.Close.
func ServeDebug(addr string, r *Recorder) (srv *http.Server, boundAddr string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv = &http.Server{Handler: DebugMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
