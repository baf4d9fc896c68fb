package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/server"
)

// Retry configures transport-level retries for an HTTPClient. Retries
// fire only on errors the server never answered (connection refused or
// reset — e.g. across a crash and restart), never on HTTP status errors
// or context cancellation. Every retried mutating request carries the
// same op id, so a server that already committed the op before the
// connection died answers idempotently from state instead of re-applying
// — the client half of exactly-once step semantics.
type Retry struct {
	// Attempts is the number of retries after the first try (0 = off).
	Attempts int
	// Backoff is the wait before the first retry, doubling each retry
	// and capped at 2s (0 with Attempts > 0 selects 100ms).
	Backoff time.Duration
}

// HTTPClient drives one exploration session over the internal/server JSON
// API — the live-wire arm of the workload harness. It normalizes the
// server's StepJSON into the same StepView form the in-process client
// produces, including the per-map content digests the server emits, so an
// HTTP-driven walk is byte-comparable to an in-process one.
type HTTPClient struct {
	base  string
	hc    *http.Client
	id    int
	retry Retry
	// opSeq numbers this client's mutating requests; with the session id
	// it forms the deterministic op id retries are deduplicated by.
	opSeq int
}

// newHTTPClient creates a session via POST /sessions. base is the server
// root (e.g. an httptest.Server URL), mode the session's exploration mode
// and predicate the optional starting selection. A 429 admission
// rejection surfaces as a *StatusError. With retry on, the client rides
// a server restart mid-run (the kill-and-resume soak): a crashed-and-
// recovered server resumes the session exactly, so a retried walk stays
// on the deterministic path.
func newHTTPClient(ctx context.Context, base string, hc *http.Client, mode core.Mode, predicate string, retry Retry) (*HTTPClient, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if retry.Attempts > 0 && retry.Backoff <= 0 {
		retry.Backoff = 100 * time.Millisecond
	}
	c := &HTTPClient{base: strings.TrimRight(base, "/"), hc: hc, retry: retry}
	var created struct {
		ID int `json:"id"`
	}
	err := c.do(ctx, http.MethodPost, "/sessions",
		map[string]string{"mode": mode.Token(), "predicate": predicate}, &created)
	if err != nil {
		return nil, err
	}
	c.id = created.ID
	return c, nil
}

// nextOpID mints the deterministic idempotency tag of the next mutating
// request. Op ids consume no randomness, so enabling retries never
// perturbs a seeded walk.
func (c *HTTPClient) nextOpID() string {
	c.opSeq++
	return fmt.Sprintf("%d-%d", c.id, c.opSeq)
}

// Step implements Client. It always requests the EXPLAIN profile: the
// extra payload is a few hundred bytes, and the workload harness needs it
// to record slow-step exemplars.
func (c *HTTPClient) Step(ctx context.Context) (*StepView, error) {
	var sj server.StepJSON
	path := c.path("step") + "?explain=1"
	if c.retry.Attempts > 0 {
		path += "&opid=" + c.nextOpID()
	}
	if err := c.do(ctx, http.MethodGet, path, nil, &sj); err != nil {
		return nil, err
	}
	return viewFromJSON(&sj), nil
}

// applyBody builds an apply payload, tagged with an op id when retries
// are on.
func (c *HTTPClient) applyBody(kv map[string]any) map[string]any {
	if c.retry.Attempts > 0 {
		kv["op_id"] = c.nextOpID()
	}
	return kv
}

// Apply implements Client.
func (c *HTTPClient) Apply(ctx context.Context, predicate string) error {
	return c.do(ctx, http.MethodPost, c.path("apply"), c.applyBody(map[string]any{"predicate": predicate}), nil)
}

// ApplyRecommendation implements Client. The wire index is 1-based.
func (c *HTTPClient) ApplyRecommendation(ctx context.Context, i int) error {
	return c.do(ctx, http.MethodPost, c.path("apply"), c.applyBody(map[string]any{"recommendation": i + 1}), nil)
}

// Back implements Client. The server answers an empty history with 409;
// that outcome maps to (false, nil), matching Session.Back.
func (c *HTTPClient) Back(ctx context.Context) (bool, error) {
	err := c.do(ctx, http.MethodPost, c.path("apply"), c.applyBody(map[string]any{"back": true}), nil)
	if se, ok := err.(*StatusError); ok && se.Code == http.StatusConflict &&
		strings.Contains(se.Msg, "history empty") {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Summary implements Client.
func (c *HTTPClient) Summary(ctx context.Context) (*SummaryView, error) {
	var sv SummaryView
	if err := c.do(ctx, http.MethodGet, c.path("summary"), nil, &sv); err != nil {
		return nil, err
	}
	if sv.MapsPerDimension == nil {
		sv.MapsPerDimension = map[string]int{}
	}
	return &sv, nil
}

// Close implements Client by deleting the server-side session.
func (c *HTTPClient) Close(ctx context.Context) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/sessions/%d", c.id), nil, nil)
}

func (c *HTTPClient) path(action string) string {
	return fmt.Sprintf("/sessions/%d/%s", c.id, action)
}

// do issues one request, retrying transport-level failures per the
// client's Retry policy (HTTP status errors and context expiry never
// retry), and decodes the JSON response into out (when non-nil). Non-2xx
// responses return a *StatusError carrying the server's error message.
func (c *HTTPClient) do(ctx context.Context, method, path string, body, out any) error {
	backoff := c.retry.Backoff
	const maxBackoff = 2 * time.Second
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			return err // the server answered; this is not a transport failure
		}
		if ctx.Err() != nil || attempt >= c.retry.Attempts {
			return err
		}
		if !sleepCtx(ctx, backoff) {
			return err
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// doOnce is one attempt of do.
func (c *HTTPClient) doOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// W3C trace-context propagation: a trace ID installed in the context
	// (the workload harness derives one per step) rides the request, so
	// the server's spans, profile, and flight-recorder wide event carry
	// the same ID the client logs.
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		if tp := obs.Traceparent(tid, obs.NewSpanID()); tp != "" {
			req.Header.Set("traceparent", tp)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(payload, &e)
		if e.Error == "" {
			e.Error = strings.TrimSpace(string(payload))
		}
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(payload, out)
}

// viewFromJSON normalizes the server's step payload into the shared
// StepView form, mirroring InprocClient.view field by field.
func viewFromJSON(sj *server.StepJSON) *StepView {
	sv := &StepView{
		Selection:        sj.Selection,
		GroupSize:        sj.GroupSize,
		Degraded:         sj.Degraded,
		RecordsProcessed: sj.RecordsProcessed,
		TraceID:          sj.TraceID,
		Profile:          sj.Profile,
	}
	for _, m := range sj.Maps {
		mv := MapView{
			GroupBy:   m.GroupBy,
			Dimension: m.Dimension,
			Utility:   m.Utility,
			Digest:    m.Digest,
		}
		for _, b := range m.Bars {
			mv.Bars = append(mv.Bars, b.Value)
		}
		sv.Maps = append(sv.Maps, mv)
	}
	for _, r := range sj.Recommendations {
		sv.Recommendations = append(sv.Recommendations, RecView{
			Operation: r.Operation,
			Target:    r.Target,
			Utility:   r.Utility,
		})
	}
	return sv
}
