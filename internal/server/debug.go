// Health, metrics and the /debug endpoints: read-only views of the
// server's own state.

package server

import (
	"net/http"
	"strconv"

	"subdex/internal/obs"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":     "ok",
		"database":   s.ex.DB.Name,
		"version":    s.info.Version,
		"commit":     s.info.Commit,
		"go_version": s.info.GoVersion,
	})
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

// handleCache serves a snapshot of the engine's cross-step accumulator
// cache: entry/record occupancy against the budget, the bytes the entries
// hold, hit/miss/eviction/bypass counters, and the derived hit rate (over
// lookups: a bypassed group is not one). The counters are exported as
// subdex_engine_cache_*_total and the bytes as subdex_engine_cache_bytes on
// /metrics; this endpoint adds the occupancy view they cannot carry.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	st := s.ex.EngineCacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"engine_cache": st,
		"hit_rate":     st.HitRate(),
		"enabled":      st.BudgetRecords > 0,
	})
}

// debugFilters parses the shared ?limit=N and ?trace=<id> query filters
// of the /debug endpoints. It reports ok=false after writing a 400.
func debugFilters(w http.ResponseWriter, r *http.Request) (trace string, limit int, ok bool) {
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return "", 0, false
		}
		limit = n
	}
	return q.Get("trace"), limit, true
}

// handleSpans serves the most recent request span trees, newest first.
// ?trace=<id> keeps only roots collected under that trace ID; ?limit=N
// truncates to the newest N.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	trace, limit, ok := debugFilters(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"spans": s.spans.SnapshotFiltered(obs.TraceID(trace), limit),
	})
}

// handleFlight serves the live flight-recorder ring, newest first, with
// the same ?limit / ?trace filters as /debug/spans, plus the dump and
// rate-limit-suppression counts.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	trace, limit, ok := debugFilters(w, r)
	if !ok {
		return
	}
	dumps, suppressed := s.flight.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"events":        s.flight.Snapshot(trace, limit),
		"dumps":         dumps,
		"suppressed":    suppressed,
		"dumps_enabled": s.flight.DumpsEnabled(),
	})
}
