// The session handlers: create, delete, the read-only views, and step and
// apply — the two that append to a session's op log, through one commit path.

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/query"
)

// createSessionRequest selects the exploration mode.
type createSessionRequest struct {
	Mode string `json:"mode"` // "ud" | "rp" | "fa"
	// Predicate optionally starts the session at a selection.
	Predicate string `json:"predicate"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	mode, err := core.ParseModeToken(strings.ToLower(req.Mode))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q", req.Mode))
		return
	}
	start := query.Description{}
	if req.Predicate != "" {
		d, err := s.ex.ParseDescription(req.Predicate)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		start = d
	}
	id, ref := s.table.create(mode, start)
	if ref != nil {
		ref.write(w)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "mode": mode.String()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	if ref := s.table.remove(id); ref != nil {
		ref.write(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// session resolves the request's {id} to its live entry, restoring a
// shed session on the way. It reports ok=false after writing the refusal.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (id int, e *sessionEntry, ok bool) {
	if id, ok = sessionID(w, r); !ok {
		return 0, nil, false
	}
	e, ref := s.table.lookup(r.Context(), id)
	if ref != nil {
		ref.write(w)
		return 0, nil, false
	}
	return id, e, true
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	_, e, ok := s.session(w, r)
	if !ok {
		return
	}
	e.mu.Lock()
	sum := e.sess.Summarize()
	e.mu.Unlock()
	writeJSON(w, http.StatusOK, summaryJSON(sum))
}

// handleVega serves the Vega-Lite specification of one displayed map of the
// session's latest step (1-based index). The spec is computed under the
// session's own lock (never the table's) in vegaSpec; the response is
// written only after that lock is released, so a slow or stalled client
// can never hold the session hostage.
func (s *Server) handleVega(w http.ResponseWriter, r *http.Request) {
	_, e, ok := s.session(w, r)
	if !ok {
		return
	}
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 {
		writeError(w, http.StatusBadRequest, "bad map index")
		return
	}
	spec, ref := s.vegaSpec(e, n)
	if ref != nil {
		ref.write(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(spec)
}

// vegaSpec computes the Vega-Lite spec for the n-th map of the session's
// latest step under the session lock. It performs no network writes while
// holding the lock (the lockblock analyzer enforces this discipline).
func (s *Server) vegaSpec(e *sessionEntry, n int) ([]byte, *refusal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	steps := e.sess.Steps()
	if len(steps) == 0 {
		return nil, refuse(http.StatusConflict, "no step executed yet")
	}
	last := steps[len(steps)-1]
	if n > len(last.Maps) {
		return nil, refuse(http.StatusNotFound, "map index out of range")
	}
	rm := last.Maps[n-1]
	spec, err := rm.VegaLiteSpec(s.ex.DictFor(rm))
	if err != nil {
		return nil, refuse(http.StatusInternalServerError, err.Error())
	}
	return spec, nil
}

// mutation is what differs between the two operations that append to a
// session's op log; commit is what they share.
type mutation struct {
	what   string // "step" or "apply": names the op when its log append fails
	opid   string // client idempotency tag; "" = none
	isStep bool   // the kind of committed op a retried opid must name
	// run executes the operation on the locked session.
	run func(*core.Session) *refusal
	// render builds the response body from the locked session — after
	// run, or instead of it when the op was already committed.
	render func(*core.Session) any
	// observe, when set, sees the outcome outside the lock, before the
	// response: run's refusal, or nil once the op is durable.
	observe func(ref *refusal, elapsed time.Duration)
}

// commit is the one path a mutating request takes through a session:
// TryLock-or-409 → idempotent-retry check → mutate → tag → unlock →
// log-before-respond → answer.
//
// One session is single-threaded: the paper's UI issues one step at a
// time. A second concurrent step/apply on the same session is a client
// bug — reject it immediately with 409 instead of queueing compute. The
// per-session lock means a slow step here never blocks other sessions or
// /healthz.
func (s *Server) commit(w http.ResponseWriter, id int, e *sessionEntry, m mutation) {
	if !e.tryLock() {
		s.busyRejected.Inc()
		errBusy.write(w)
		return
	}
	sess := e.sess
	// Idempotent retry: if the client re-sends an op the session already
	// committed (the connection died before the response — e.g. across a
	// crash), answer from the committed state instead of executing a new
	// op. This is the client half of exactly-once semantics; the
	// log-before-respond below is the server half. The committed op must
	// be of the request's own kind — an opid that tags a committed apply
	// is not a committed step, however the client mislabeled it — so any
	// other kind falls through to normal execution.
	if last, ok := sess.LastOp(); m.opid != "" && ok && last.OpID == m.opid && (last.Kind == core.OpStep) == m.isStep {
		payload := m.render(sess)
		e.mu.Unlock()
		writeJSON(w, http.StatusOK, payload)
		return
	}
	start := time.Now()
	ref := m.run(sess)
	var payload any
	var op core.SessionOp
	var seq int
	if ref == nil {
		sess.TagLastOp(m.opid)
		op, _ = sess.LastOp()
		seq = sess.NumOps() - 1
		payload = m.render(sess)
		e.appending.Store(true)
	}
	// Everything below — the WAL append, the wide event, dump triggers,
	// the response — happens outside the session lock: the WAL fsync and
	// flight dumps do file I/O and the response write blocks on the
	// client.
	e.mu.Unlock()
	elapsed := time.Since(start)
	if ref != nil {
		if m.observe != nil {
			m.observe(ref, elapsed)
		}
		ref.write(w)
		return
	}
	// Log before respond: the op is durable before the client sees it,
	// so a crash after this point loses nothing a client has acted on.
	ref = s.table.appendOp(id, seq, op, m.what)
	e.appending.Store(false)
	if ref != nil {
		ref.write(w)
		return
	}
	if m.observe != nil {
		m.observe(nil, elapsed)
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleStep runs one exploration step. The request context carries the
// span sink installed by the middleware (so the step's span tree hangs
// off the HTTP root span), the trace ID (so the step profile and wide
// event correlate with the caller's traceparent), and the request's
// cancellation, which the engine honors at phase boundaries.
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	id, e, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	explain := q.Get("explain") == "1"
	var out StepJSON
	s.commit(w, id, e, mutation{
		what:   "step",
		opid:   q.Get("opid"),
		isStep: true,
		run: func(sess *core.Session) *refusal {
			_, err := sess.StepCtx(r.Context())
			return s.stepRefusal(err)
		},
		render: func(sess *core.Session) any {
			steps := sess.Steps()
			out = s.stepJSON(steps[len(steps)-1], explain)
			return out
		},
		observe: func(ref *refusal, elapsed time.Duration) {
			s.recordStep(r.Context(), id, &out, ref, elapsed)
		},
	})
}

// stepRefusal maps a failed step to its answer.
func (s *Server) stepRefusal(err error) *refusal {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The deadline fired before the engine completed a single
		// phase: there is no prefix to degrade to.
		s.stepTimeouts.Inc()
		return refuse(http.StatusGatewayTimeout, "step deadline exceeded before any phase boundary; retry or raise -step-timeout")
	default:
		return refuse(http.StatusInternalServerError, err.Error())
	}
}

// recordStep writes the step's wide event: the failure (the middleware's
// 5xx trigger fires the dump once the error is written; recording first
// puts the failing step in the dumped ring), or the durable success.
func (s *Server) recordStep(ctx context.Context, id int, out *StepJSON, ref *refusal, elapsed time.Duration) {
	status := http.StatusOK
	if ref != nil {
		status = ref.status
	}
	ev := obs.NewWideEvent().
		Set("op", "step").
		Set("session", id).
		Set("trace_id", string(obs.TraceIDFrom(ctx))).
		Set("status", status).
		Set("duration_ms", float64(elapsed.Microseconds())/1000)
	if ref != nil {
		s.flightEvent("", ev.Set("error", ref.msg))
		return
	}
	ev.Set("degraded", out.Degraded).
		Set("selection", out.Selection).
		Set("gen_ms", out.GenMillis).
		Set("rec_ms", out.RecMillis).
		Set("records_processed", out.RecordsProcessed)
	if out.Degraded {
		s.flightEvent("degraded_step", ev)
		return
	}
	s.flightEvent("", ev)
}

// applyRequest moves a session: exactly one of the move fields is used.
// Recommendation is a pointer so an explicit {"recommendation": 0} is
// distinguishable from an absent field and gets a targeted error.
type applyRequest struct {
	Predicate      string `json:"predicate,omitempty"`
	Recommendation *int   `json:"recommendation,omitempty"` // 1-based
	Back           bool   `json:"back,omitempty"`
	// OpID is an optional client idempotency tag: re-sending a request
	// whose op the session already committed (a retry after a lost
	// response) answers from state instead of re-applying.
	OpID string `json:"op_id,omitempty"`
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	id, e, ok := s.session(w, r)
	if !ok {
		return
	}
	var req applyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.commit(w, id, e, mutation{
		what: "apply",
		opid: req.OpID,
		run:  func(sess *core.Session) *refusal { return s.applyLocked(sess, req) },
		render: func(sess *core.Session) any {
			return map[string]string{"selection": sess.Current().String()}
		},
	})
}

// applyLocked commits one apply operation on the locked session.
func (s *Server) applyLocked(sess *core.Session, req applyRequest) *refusal {
	bad := func(msg string) *refusal { return refuse(http.StatusBadRequest, msg) }
	switch {
	case req.Back:
		if !sess.Back() {
			return refuse(http.StatusConflict, "history empty")
		}
	case req.Recommendation != nil:
		if *req.Recommendation < 1 {
			return bad("recommendation must be ≥ 1 (1-based index)")
		}
		if err := sess.ApplyRecommendation(*req.Recommendation - 1); err != nil {
			return bad(err.Error())
		}
	case req.Predicate != "":
		d, err := s.ex.ParseDescription(req.Predicate)
		if err != nil {
			return bad(err.Error())
		}
		if err := sess.ApplyDescription(d); err != nil {
			return bad(err.Error())
		}
	default:
		return bad("one of predicate, recommendation, back required")
	}
	return nil
}
