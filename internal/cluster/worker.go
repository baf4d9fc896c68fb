// Cluster scan worker: the process-boundary twin of engine.ScanInto.
// A worker owns a full frozen copy of the dataset (datasets are static;
// what is partitioned is scan work, not storage), receives explicit
// record ranges from the coordinator, folds them through the existing
// sharded columnar scan, and ships the partial accumulator back as one
// checksummed wire frame (ratingmap.EncodeWire).
//
// The worker never materializes groups or interprets selections: the
// scan request carries the exact record positions to fold (delta-varint
// coded), so sampled recommendation groups, phase subranges, and whole
// groups all take the same path and the coordinator-side merge is
// bit-identical to a local scan by construction.

package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Wire constants shared by worker and coordinator.
const (
	// scanPath serves partition scans, healthPath liveness+fingerprint.
	scanPath   = "/cluster/scan"
	healthPath = "/healthz"

	// fingerprintHeader echoes the worker's engine-config fingerprint on
	// every response; scanMSHeader reports worker-side scan time.
	fingerprintHeader = "X-Subdex-Fingerprint"
	scanMSHeader      = "X-Subdex-Scan-Ms"

	// frameContentType marks a partial-accumulator response body.
	frameContentType = "application/x-subdex-partial"

	// maxScanRequestBytes bounds one scan request body (keys + coded
	// record range), maxScanKeys the candidate set size.
	maxScanRequestBytes = 64 << 20
	maxScanKeys         = 1 << 14
)

// ScanRequest is the coordinator→worker scan RPC body (JSON; Records is
// base64 of the delta-varint coding, see encodeRecords).
type ScanRequest struct {
	// Version is the wire protocol version (ratingmap.WireVersion).
	Version int `json:"version"`
	// Fingerprint is the coordinator explorer's engine-config
	// fingerprint; the worker refuses mismatches with 409 so a
	// mixed-version or mixed-dataset cluster fails loudly instead of
	// merging incompatible histograms.
	Fingerprint string `json:"fingerprint"`
	// Keys are the candidate maps still alive in the coordinator's
	// accumulator (pruning shrinks this between phases).
	Keys []ratingmap.Key `json:"keys"`
	// Records is the delta-varint coding of the record positions to
	// fold; Count is its decoded length, cross-checked after decode.
	Records []byte `json:"records"`
	Count   int    `json:"count"`
	// Partition identifies the partition within its ScanRange call, for
	// logs and traces.
	Partition int `json:"partition"`
}

// healthResponse is the worker healthz body.
type healthResponse struct {
	Fingerprint string `json:"fingerprint"`
	Records     int    `json:"records"`
}

// WorkerOptions configures NewWorker.
type WorkerOptions struct {
	// Registry receives subdex_cluster_worker_* instruments and, when
	// non-nil, is also served at /metrics.
	Registry *obs.Registry
	// ScanHook, when non-nil, runs before every scan — the fault-
	// injection seam: return an error to fail the request with 500, or
	// block on ctx.Done() to stall it into the coordinator's partition
	// timeout. Test-only.
	ScanHook func(req *ScanRequest) error
}

// Worker serves partition scans over one explorer's dataset.
type Worker struct {
	ex   *core.Explorer
	fp   string
	opts WorkerOptions
	m    *WorkerMetrics
}

// NewWorker wraps an explorer built over the worker's dataset copy. The
// explorer must be configured identically to the coordinator's
// (result-affecting config feeds the fingerprint both sides compare).
func NewWorker(ex *core.Explorer, opts WorkerOptions) *Worker {
	return &Worker{ex: ex, fp: ex.Fingerprint(), opts: opts, m: NewWorkerMetrics(opts.Registry)}
}

// Fingerprint reports the worker's engine-config fingerprint.
func (w *Worker) Fingerprint() string { return w.fp }

// Handler returns the worker's HTTP surface: POST /cluster/scan,
// GET /healthz, and (with a registry) GET /metrics. Every response
// echoes the fingerprint header and the request's traceparent, so
// coordinator EXPLAIN profiles and spans line up across the hop.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(scanPath, w.handleScan)
	mux.HandleFunc(healthPath, w.handleHealth)
	if w.opts.Registry != nil {
		reg := w.opts.Registry
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(rw)
		})
	}
	return w.trace(mux)
}

// trace is the worker's traceparent middleware: it adopts the incoming
// trace id (coordinator hop) and echoes the header back, mirroring the
// server's instrument middleware.
func (w *Worker) trace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			r = r.WithContext(obs.WithTraceID(r.Context(), tid))
			rw.Header().Set("traceparent", obs.Traceparent(tid, obs.NewSpanID()))
		}
		rw.Header().Set(fingerprintHeader, w.fp)
		next.ServeHTTP(rw, r)
	})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(healthResponse{Fingerprint: w.fp, Records: w.ex.DB.Ratings.Len()})
}

// scanError reports a scan failure as JSON with the given status.
func scanError(rw http.ResponseWriter, status int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (w *Worker) handleScan(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		scanError(rw, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ScanRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxScanRequestBytes))
	if err := dec.Decode(&req); err != nil {
		w.m.addScan(0, time.Since(start), true)
		scanError(rw, http.StatusBadRequest, "bad scan request: %v", err)
		return
	}
	if req.Version != ratingmap.WireVersion {
		w.m.addScan(0, time.Since(start), true)
		scanError(rw, http.StatusConflict, "wire version %d unsupported (worker speaks %d)", req.Version, ratingmap.WireVersion)
		return
	}
	if req.Fingerprint != w.fp {
		w.m.addScan(0, time.Since(start), true)
		scanError(rw, http.StatusConflict, "engine-config fingerprint mismatch (worker %s, coordinator %s)", w.fp, req.Fingerprint)
		return
	}
	if len(req.Keys) > maxScanKeys {
		w.m.addScan(0, time.Since(start), true)
		scanError(rw, http.StatusBadRequest, "candidate set too large (%d keys)", len(req.Keys))
		return
	}
	records, err := decodeRecords(req.Records, req.Count, w.ex.DB.Ratings.Len())
	if err != nil {
		w.m.addScan(0, time.Since(start), true)
		scanError(rw, http.StatusBadRequest, "bad record range: %v", err)
		return
	}
	if hook := w.opts.ScanHook; hook != nil {
		if err := hook(&req); err != nil {
			w.m.addScan(0, time.Since(start), true)
			scanError(rw, http.StatusInternalServerError, "injected fault: %v", err)
			return
		}
	}
	if err := r.Context().Err(); err != nil {
		// The coordinator's per-partition timeout already gave up; the
		// write below would fail anyway.
		w.m.addScan(0, time.Since(start), true)
		return
	}
	// The accumulator's description stays empty here: frames are
	// description-free and the coordinator re-attaches the group's
	// description at decode (see ratingmap.DecodeWire).
	acc := w.ex.Gen.Builder.NewAccumulator(query.Description{}, req.Keys)
	scanStart := time.Now()
	// One shard per P this process may run on: NumCPU would over-shard
	// under a CPU quota.
	w.ex.Gen.ScanInto(acc, records, runtime.GOMAXPROCS(0), 0)
	frame := acc.EncodeWire()
	rw.Header().Set("Content-Type", frameContentType)
	rw.Header().Set(scanMSHeader, fmt.Sprintf("%.3f", float64(time.Since(scanStart).Microseconds())/1000))
	w.m.addScan(len(records), time.Since(start), false)
	_, _ = rw.Write(frame)
}
