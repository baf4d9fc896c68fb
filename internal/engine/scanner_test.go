package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"math/rand"

	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// fakeScanner is an in-process RangeScanner: it partitions the requested
// range exactly like the cluster coordinator and scans each partition
// with a private accumulator, optionally losing a tail of partitions on
// a chosen call — the HTTP-free twin of internal/cluster used to pin the
// engine-side contract.
type fakeScanner struct {
	g     *Generator
	parts int
	// loseCall/loseAt drop partitions [loseAt:) of call number loseCall
	// (0-based count of ScanRange calls); loseCall < 0 never loses.
	loseCall int
	loseAt   int
	fail     error // returned from every call when non-nil
	calls    int
}

func (s *fakeScanner) ScanRange(ctx context.Context, group *query.RatingGroup, keys []ratingmap.Key,
	lo, hi int) (*RangeScan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.fail != nil {
		return nil, s.fail
	}
	call := s.calls
	s.calls++
	parts := s.parts
	if parts > hi-lo {
		parts = hi - lo
	}
	if parts < 1 {
		parts = 1
	}
	rs := &RangeScan{Partitions: parts}
	for p := 0; p < parts; p++ {
		plo := lo + p*(hi-lo)/parts
		phi := lo + (p+1)*(hi-lo)/parts
		if call == s.loseCall && p >= s.loseAt {
			rs.Lost = parts - p
			rs.Profiles = append(rs.Profiles, PartitionProfile{Partition: p, Records: phi - plo, Lost: true})
			break
		}
		acc := s.g.Builder.NewAccumulator(group.Desc, keys)
		s.g.ScanInto(acc, group.Records[plo:phi], 1, 0)
		rs.Partials = append(rs.Partials, acc)
		rs.Records += phi - plo
		rs.Profiles = append(rs.Profiles, PartitionProfile{Partition: p, Records: phi - plo, Attempts: 1})
	}
	return rs, nil
}

// TestScannerDigestIdentity: a generator with a RangeScanner installed
// must produce byte-identical digests, utilities, and record counts to
// the plain local generator, on both the unphased and the phased path.
func TestScannerDigestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildRandomDB(t, rng, 30, 25, 3000)
	keys := allCandidates(db)
	group := wholeGroup(t, db)

	run := func(scanner RangeScanner, pruning Pruning) *Result {
		g := NewGenerator(db)
		g.Scanner = scanner
		cfg := DefaultConfig()
		cfg.Pruning = pruning
		cfg.Phases = 4
		cfg.MinPhaseRecords = 1
		res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, pruning := range []Pruning{PruneNone, PruneBoth} {
		for _, parts := range []int{1, 2, 3, 7, 5000} { // 5000 > records: clamps to one record per partition
			local := run(nil, pruning)
			dist := run(&fakeScanner{g: NewGenerator(db), parts: parts, loseCall: -1}, pruning)
			if ratingmap.DigestMaps(local.Maps) != ratingmap.DigestMaps(dist.Maps) {
				t.Fatalf("pruning=%v parts=%d: distributed maps diverge from local", pruning, parts)
			}
			if len(local.Utilities) != len(dist.Utilities) {
				t.Fatalf("pruning=%v parts=%d: utility count %d vs %d", pruning, parts, len(local.Utilities), len(dist.Utilities))
			}
			for i := range local.Utilities {
				if local.Utilities[i] != dist.Utilities[i] {
					t.Fatalf("pruning=%v parts=%d: utility[%d] %g vs %g", pruning, parts, i, local.Utilities[i], dist.Utilities[i])
				}
			}
			if local.RecordsProcessed != dist.RecordsProcessed || dist.Degraded {
				t.Fatalf("pruning=%v parts=%d: records %d vs %d, degraded=%v",
					pruning, parts, local.RecordsProcessed, dist.RecordsProcessed, dist.Degraded)
			}
			if len(dist.Profile.Cluster) == 0 {
				t.Fatalf("pruning=%v parts=%d: profile carries no partition detail", pruning, parts)
			}
		}
	}
}

// TestScannerPartitionLostUnphased pins the degraded contract on the
// unphased path: losing partitions [1:) of 3 leaves exactly the first
// third of the records merged, Degraded set, reason "partition_lost",
// and a result identical to an honest scan of that record prefix.
func TestScannerPartitionLostUnphased(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := buildRandomDB(t, rng, 20, 20, 1500)
	keys := allCandidates(db)
	group := wholeGroup(t, db)
	n := len(group.Records)

	g := NewGenerator(db)
	g.Scanner = &fakeScanner{g: NewGenerator(db), parts: 3, loseCall: 0, loseAt: 1}
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("lost partition did not degrade the result")
	}
	if want := n / 3; res.RecordsProcessed != want {
		t.Fatalf("RecordsProcessed = %d, want the merged prefix %d", res.RecordsProcessed, want)
	}
	if res.Profile.DegradedReason != "partition_lost" {
		t.Fatalf("DegradedReason = %q, want %q", res.Profile.DegradedReason, "partition_lost")
	}

	// The anytime answer must equal a clean scan over the same prefix.
	prefix := &query.RatingGroup{Desc: group.Desc, Records: group.Records[:n/3]}
	ref, err := NewGenerator(db).TopMapsCtx(context.Background(), prefix, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratingmap.DigestMaps(res.Maps) != ratingmap.DigestMaps(ref.Maps) {
		t.Fatal("degraded maps diverge from an honest scan of the merged prefix")
	}
}

// TestScannerPartitionLostPhased pins the same contract mid-phase-loop:
// the loss truncates the current phase to its merged partition prefix
// and stops the scan there.
func TestScannerPartitionLostPhased(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := buildRandomDB(t, rng, 20, 20, 2000)
	keys := allCandidates(db)
	group := wholeGroup(t, db)
	n := len(group.Records)

	g := NewGenerator(db)
	g.Scanner = &fakeScanner{g: NewGenerator(db), parts: 2, loseCall: 2, loseAt: 1}
	cfg := DefaultConfig()
	cfg.Pruning = PruneBoth
	cfg.Phases = 4
	cfg.MinPhaseRecords = 1
	res, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Profile.DegradedReason != "partition_lost" {
		t.Fatalf("degraded=%v reason=%q, want partition_lost degradation", res.Degraded, res.Profile.DegradedReason)
	}
	// Phases 0 and 1 completed ([0, n/4) and [n/4, 2n/4)); phase 2's
	// first of two partitions merged before the loss.
	lo, hi := 2*n/4, 3*n/4
	want := 2*n/4 + (hi-lo)/2
	if res.RecordsProcessed != want {
		t.Fatalf("RecordsProcessed = %d, want %d", res.RecordsProcessed, want)
	}
}

// TestScannerAllPartitionsLost: nothing merged and nothing previously
// processed is an error, not a degraded result — identical to a
// deadline before the first phase.
func TestScannerAllPartitionsLost(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	db := buildRandomDB(t, rng, 10, 10, 400)
	keys := allCandidates(db)
	group := wholeGroup(t, db)

	for _, pruning := range []Pruning{PruneNone, PruneBoth} {
		g := NewGenerator(db)
		g.Scanner = &fakeScanner{g: NewGenerator(db), parts: 3, loseCall: 0, loseAt: 0}
		cfg := DefaultConfig()
		cfg.Pruning = pruning
		cfg.Phases = 4
		cfg.MinPhaseRecords = 1
		if _, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg); err == nil {
			t.Fatalf("pruning=%v: total partition loss returned a result, want error", pruning)
		}
	}
}

// TestScannerErrorPropagates: hard scanner errors (unbound fingerprint,
// invalid range, config mistakes) fail the call with context.
func TestScannerErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := buildRandomDB(t, rng, 10, 10, 400)
	keys := allCandidates(db)
	group := wholeGroup(t, db)

	sentinel := errors.New("fingerprint unbound")
	g := NewGenerator(db)
	g.Scanner = &fakeScanner{g: NewGenerator(db), fail: sentinel}
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	_, err := g.TopMapsCtx(context.Background(), group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "distributed scan") {
		t.Fatalf("err = %v, want distributed-scan context", err)
	}
}
