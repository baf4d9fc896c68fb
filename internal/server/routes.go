// Routing and middleware: the route table, the one method check, and the
// observability wrapper every request runs through.

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"subdex/internal/obs"
)

// maxBodyBytes caps JSON request bodies; larger bodies answer 413.
const maxBodyBytes = 64 << 10

// route is one row of the route table.
type route struct {
	pattern string // ServeMux pattern (Go 1.22 path wildcards)
	label   string // the request's `route` metric label and root-span name
	method  string // the one method answered, anything else is a 405; "" = any
	handler http.HandlerFunc
}

// sessionRoute labels every /sessions/{id}... route: session sub-routes
// share one metric series family, as they always have.
const sessionRoute = "/sessions/{id}"

// routes is everything the server answers. A known path is refused on
// the wrong method before its handler runs (see only), so a misdirected
// request never costs a session lookup or the restore of a shed session.
// The two catch-all rows keep "bad session id" a 400 and an unknown
// session action a JSON 404 instead of the mux's text one.
func (s *Server) routes() []route {
	return []route{
		{"/healthz", "/healthz", "", s.handleHealthz},
		{"/sessions", "/sessions", http.MethodPost, s.handleCreateSession},
		{"/sessions/{id}", sessionRoute, http.MethodDelete, s.handleDelete},
		{"/sessions/{id}/step", sessionRoute, http.MethodGet, s.handleStep},
		{"/sessions/{id}/apply", sessionRoute, http.MethodPost, s.handleApply},
		{"/sessions/{id}/summary", sessionRoute, http.MethodGet, s.handleSummary},
		{"/sessions/{id}/maps/{n}/vega", sessionRoute, http.MethodGet, s.handleVega},
		{"/sessions/{id}/{action...}", sessionRoute, "", handleUnknownAction},
		{"/sessions/", sessionRoute, "", handleUnknownAction},
		{"/metrics", "/metrics", http.MethodGet, s.handleMetrics},
		{"/debug/spans", "/debug/spans", http.MethodGet, s.handleSpans},
		{"/debug/cache", "/debug/cache", http.MethodGet, s.handleCache},
		{"/debug/flightrecorder", "/debug/flightrecorder", http.MethodGet, s.handleFlight},
	}
}

// Handler returns the HTTP handler with observability middleware
// installed on every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, s.instrument(rt.label, only(rt.method, rt.handler)))
	}
	return mux
}

// only answers every method but the given one with 405 and an Allow
// header; an empty method lets everything through. Stdlib method
// patterns ("GET /metrics") are deliberately not used: they answer
// outside instrument, with a text body and `Allow: GET, HEAD`.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	if method == "" {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, method+" only")
			return
		}
		h(w, r)
	}
}

// sessionID reads the {id} path value. It reports ok=false after writing
// a 400.
func sessionID(w http.ResponseWriter, r *http.Request) (id int, ok bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad session id")
		return 0, false
	}
	return id, true
}

// handleUnknownAction answers whatever under /sessions/ no other route
// claims.
func handleUnknownAction(w http.ResponseWriter, r *http.Request) {
	if _, ok := sessionID(w, r); !ok {
		return
	}
	action, _, _ := strings.Cut(r.PathValue("action"), "/")
	writeError(w, http.StatusNotFound, "unknown action "+action)
}

// statusCodes are the response codes this server emits; one counter
// series per route×code is pre-registered. Codes outside this set (none
// today) fall back to the route's code="other" series, so the hot path
// stays registration-free no matter what a handler writes.
var statusCodes = []int{200, 201, 400, 404, 405, 409, 413, 429, 500, 504}

// routeInstruments bundles one route's pre-resolved HTTP instruments.
// The zero value is usable and inert: nil obs instruments are no-ops.
type routeInstruments struct {
	latency *obs.Histogram
	byCode  map[int]*obs.Counter
	other   *obs.Counter
}

// newRouteInstruments resolves one route's instruments against the
// registry: every registry lookup of the HTTP surface happens here.
func newRouteInstruments(reg *obs.Registry, route string) *routeInstruments {
	const (
		latencyName = "subdex_http_request_duration_seconds"
		latencyHelp = "HTTP request latency by route."
		totalName   = "subdex_http_requests_total"
		totalHelp   = "HTTP requests by route and status code."
	)
	ri := &routeInstruments{
		latency: reg.Histogram(latencyName, latencyHelp, nil, obs.L("route", route)),
		byCode:  make(map[int]*obs.Counter, len(statusCodes)),
		other:   reg.Counter(totalName, totalHelp, obs.L("route", route), obs.L("code", "other")),
	}
	for _, code := range statusCodes {
		ri.byCode[code] = reg.Counter(totalName, totalHelp,
			obs.L("route", route), obs.L("code", strconv.Itoa(code)))
	}
	return ri
}

// observe records one finished request: latency plus the status-code
// counter (the pre-registered series, or "other" for a code outside
// statusCodes).
func (ri *routeInstruments) observe(d time.Duration, code int) {
	ri.latency.ObserveDuration(d)
	c, ok := ri.byCode[code]
	if !ok {
		c = ri.other
	}
	c.Inc()
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the observability middleware: an
// in-flight gauge, a per-route latency histogram, a per-route/status
// request counter, and a root span (collected into the /debug/spans
// ring) covering the whole request, so one exploration step yields a
// full span tree. It speaks W3C trace context: an incoming `traceparent`
// header's trace ID is installed in the request context (the root span,
// every engine phase span, the step profile, and the step's wide event
// all carry it), and the response echoes a `traceparent` so callers can
// log the correlation ID they were served under. The instruments are
// resolved here, once per route when the mux is built, so the request
// hot path never takes the registry lock (the finding subdexvet's
// obsmetrics analyzer exists to catch) — it only observes pre-bound
// instruments.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ri := newRouteInstruments(s.reg, route)
	return func(w http.ResponseWriter, r *http.Request) {
		s.httpInFlight.Inc()
		start := time.Now()
		ctx := obs.WithSink(r.Context(), s.spans)
		// W3C trace context: honor a caller-supplied traceparent, mint an
		// ID otherwise. Installing it before StartSpan binds the root span
		// (and every profile downstream) to the caller's correlation ID.
		tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tid = obs.NewTraceID()
		}
		ctx = obs.WithTraceID(ctx, tid)
		w.Header().Set("traceparent", obs.Traceparent(tid, obs.NewSpanID()))
		ctx, span := obs.StartSpan(ctx, "http "+r.Method+" "+route)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// All bookkeeping is deferred so a panicking handler still ends
		// its span and is counted (net/http's recovery then sees the
		// panic as usual; the connection drops, which clients observe as
		// an aborted response).
		defer func() {
			if p := recover(); p != nil {
				sw.status = http.StatusInternalServerError
				span.SetAttr("panic", fmt.Sprint(p))
				defer panic(p)
			}
			s.httpInFlight.Dec()
			span.SetAttr("status", sw.status)
			span.SetAttr("path", r.URL.Path)
			span.End()
			ri.observe(time.Since(start), sw.status)
			if sw.status >= 500 {
				s.flightTrigger("http_5xx")
			}
		}()
		h(sw, r.WithContext(ctx))
	}
}

// decodeJSON reads a JSON body with the hardening defaults: a 64 KiB
// size cap (413 on breach) and unknown-field rejection (a targeted 400).
// It reports whether decoding succeeded; on failure the response has
// been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
	case strings.HasPrefix(err.Error(), "json: unknown field"):
		writeError(w, http.StatusBadRequest,
			"unknown field "+strings.TrimPrefix(err.Error(), "json: unknown field "))
	default:
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// refusal is the HTTP answer to a request the server will not carry out:
// what the session table and the commit path return in place of a result.
type refusal struct {
	status     int
	msg        string
	retryAfter string // Retry-After header value, "" = none
}

func refuse(status int, msg string) *refusal { return &refusal{status: status, msg: msg} }

var (
	errNoSession = refuse(http.StatusNotFound, "no such session")
	errBusy      = refuse(http.StatusConflict, "session busy: a step or apply is already in flight")
)

func (ref *refusal) write(w http.ResponseWriter) {
	if ref.retryAfter != "" {
		w.Header().Set("Retry-After", ref.retryAfter)
	}
	writeError(w, ref.status, ref.msg)
}
