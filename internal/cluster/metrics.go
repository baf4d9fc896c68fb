// Cluster telemetry. Same discipline as the engine and server metrics:
// literal subdex_cluster_* names registered once at construction, nil-
// safe record helpers so uninstrumented coordinators/workers (tests,
// library users) pay nothing.

package cluster

import (
	"time"

	"subdex/internal/obs"
)

// Metrics bundles the coordinator-side instruments.
type Metrics struct {
	// RPCLatency times one scan RPC round trip, successful or not; its
	// count is the attempts (subdex_cluster_rpc_duration_seconds).
	// RPCErrors counts the failed ones (subdex_cluster_rpc_errors_total).
	RPCLatency *obs.Histogram
	RPCErrors  *obs.Counter
	// Retries counts re-dispatches of a partition after a failed attempt
	// (subdex_cluster_retries_total).
	Retries *obs.Counter
	// Partitions counts partitions dispatched across ScanRange calls and
	// PartitionsLost the ones dropped after the retry budget — each loss
	// degrades an engine call (subdex_cluster_partitions_total,
	// subdex_cluster_partitions_lost_total).
	Partitions     *obs.Counter
	PartitionsLost *obs.Counter
	// FingerprintMismatch counts frames or workers rejected by the
	// engine-config fingerprint guard — any nonzero value means a
	// mixed-version cluster (subdex_cluster_fingerprint_mismatch_total).
	FingerprintMismatch *obs.Counter
	// WorkersHealthy gauges how many workers passed the last health
	// probe (subdex_cluster_workers_healthy).
	WorkersHealthy *obs.Gauge
}

// NewMetrics registers the coordinator instruments on r (nil registry →
// nil no-op Metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		RPCErrors: r.Counter("subdex_cluster_rpc_errors_total",
			"Worker scan RPC attempts that failed (transport, status, or decode)."),
		RPCLatency: r.Histogram("subdex_cluster_rpc_duration_seconds",
			"Round-trip time of one worker scan RPC."),
		Retries: r.Counter("subdex_cluster_retries_total",
			"Partition scans re-dispatched after a failed attempt."),
		Partitions: r.Counter("subdex_cluster_partitions_total",
			"Partitions dispatched across distributed scans."),
		PartitionsLost: r.Counter("subdex_cluster_partitions_lost_total",
			"Partitions dropped after exhausting the retry budget (degrades the step)."),
		FingerprintMismatch: r.Counter("subdex_cluster_fingerprint_mismatch_total",
			"Scan frames or workers rejected by the engine-config fingerprint guard."),
		WorkersHealthy: r.Gauge("subdex_cluster_workers_healthy",
			"Workers that passed the most recent health probe."),
	}
}

func (m *Metrics) addRPC(d time.Duration, failed bool) {
	if m == nil {
		return
	}
	m.RPCLatency.ObserveDuration(d)
	if failed {
		m.RPCErrors.Inc()
	}
}

func (m *Metrics) addRetry() {
	if m != nil {
		m.Retries.Inc()
	}
}

func (m *Metrics) addPartitions(n, lost int) {
	if m == nil {
		return
	}
	m.Partitions.Add(int64(n))
	if lost > 0 {
		m.PartitionsLost.Add(int64(lost))
	}
}

func (m *Metrics) addFingerprintMismatch() {
	if m != nil {
		m.FingerprintMismatch.Inc()
	}
}

func (m *Metrics) setWorkersHealthy(n int) {
	if m != nil {
		m.WorkersHealthy.Set(float64(n))
	}
}

// WorkerMetrics bundles the worker-side instruments.
type WorkerMetrics struct {
	// ScanLatency times one served scan including encode; its count is
	// the scan requests served (subdex_cluster_worker_scan_duration_seconds).
	// ScanErrors counts the rejected ones
	// (subdex_cluster_worker_scan_errors_total).
	ScanLatency *obs.Histogram
	ScanErrors  *obs.Counter
	// ScanRecords counts records folded across served scans
	// (subdex_cluster_worker_records_total).
	ScanRecords *obs.Counter
}

// NewWorkerMetrics registers the worker instruments on r (nil registry →
// nil no-op WorkerMetrics).
func NewWorkerMetrics(r *obs.Registry) *WorkerMetrics {
	if r == nil {
		return nil
	}
	return &WorkerMetrics{
		ScanErrors: r.Counter("subdex_cluster_worker_scan_errors_total",
			"Partition scan requests rejected (bad frame, fingerprint mismatch, injected fault)."),
		ScanLatency: r.Histogram("subdex_cluster_worker_scan_duration_seconds",
			"Serve time of one partition scan, decode to encode."),
		ScanRecords: r.Counter("subdex_cluster_worker_records_total",
			"Records folded into partial accumulators by this worker."),
	}
}

func (m *WorkerMetrics) addScan(records int, d time.Duration, failed bool) {
	if m == nil {
		return
	}
	m.ScanLatency.ObserveDuration(d)
	if failed {
		m.ScanErrors.Inc()
		return
	}
	m.ScanRecords.Add(int64(records))
}
