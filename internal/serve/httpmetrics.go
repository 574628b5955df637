package serve

import (
	"net/http"
	"sync"

	"hpmp/internal/obs"
)

// routeHist holds one route's request-latency histograms, one per
// observed status code. Codes appear lazily — the exposition renders only
// code cells that have samples, keeping /metrics free of empty series.
type routeHist struct {
	mu     sync.Mutex
	byCode map[int]*obs.SecondsHistogram
}

func (rh *routeHist) observe(code int, secs float64) {
	rh.mu.Lock()
	h := rh.byCode[code]
	if h == nil {
		h = obs.NewSecondsHistogram()
		rh.byCode[code] = h
	}
	rh.mu.Unlock()
	h.Observe(secs)
}

// snapshot copies the per-code histograms at one instant.
func (rh *routeHist) snapshot() map[int]obs.SecondsSnapshot {
	rh.mu.Lock()
	hists := make(map[int]*obs.SecondsHistogram, len(rh.byCode))
	for code, h := range rh.byCode {
		hists[code] = h
	}
	rh.mu.Unlock()
	out := make(map[int]obs.SecondsSnapshot, len(hists))
	for code, h := range hists {
		out[code] = h.Snapshot()
	}
	return out
}

// statusWriter captures the response code for the latency labels while
// passing Flush through, so the streaming handlers (trace download, SSE)
// keep their chunked behavior under the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// handle registers a route on the mux wrapped in latency instrumentation:
// every request observes hpmpsimd_http_request_seconds{route,code}. The
// observation runs in a defer so handlers that abort mid-stream (the
// trace handler panics with http.ErrAbortHandler) are still counted.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.httpRoutes = append(s.httpRoutes, pattern)
	rh := &routeHist{byCode: map[int]*obs.SecondsHistogram{}}
	s.httpHist[pattern] = rh
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := s.now()
		defer func() {
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			rh.observe(code, s.now().Sub(start).Seconds())
		}()
		h(sw, r)
	})
}
