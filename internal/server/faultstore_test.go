package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/sessionstore"
)

// faultStore is this package's one store wrapper: it counts the calls of
// the six methods through which the server reads and writes sessions,
// fails the ones a test names, and runs a hook at the head of every call.
// Instrument and Recovery pass straight through to the wrapped store.
type faultStore struct {
	sessionstore.Store
	// before, when set, runs at the head of every call, whatever its fate:
	// where a test parks a call or acts inside the caller's window.
	before func(method string, id int)

	mu    sync.Mutex
	fail  map[string]error // method → what its calls return instead of reaching the store
	skip  int              // calls of a failing method let through first
	calls map[string]int   // calls per method since arm, failed ones included
	fired int              // calls failed since arm
}

// arm makes every call of the methods in fail, past the first skip of
// each, return its error; it restarts the counts.
func (s *faultStore) arm(fail map[string]error, skip int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail, s.skip, s.calls, s.fired = fail, skip, make(map[string]int), 0
}

// counts returns the calls seen per method and how many of them failed.
func (s *faultStore) counts() (map[string]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.fired
}

func (s *faultStore) enter(method string, id int) error {
	if s.before != nil {
		s.before(method, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls == nil {
		s.calls = make(map[string]int)
	}
	n := s.calls[method]
	s.calls[method]++
	if err := s.fail[method]; err != nil && n >= s.skip {
		s.fired++
		return err
	}
	return nil
}

func (s *faultStore) Create(id int, snap *core.SessionSnapshot) error {
	if err := s.enter("Create", id); err != nil {
		return err
	}
	return s.Store.Create(id, snap)
}

func (s *faultStore) AppendOp(id, seq int, op core.SessionOp) error {
	if err := s.enter("AppendOp", id); err != nil {
		return err
	}
	return s.Store.AppendOp(id, seq, op)
}

func (s *faultStore) Shed(id int, snap *core.SessionSnapshot) error {
	if err := s.enter("Shed", id); err != nil {
		return err
	}
	return s.Store.Shed(id, snap)
}

func (s *faultStore) Delete(id int) error {
	if err := s.enter("Delete", id); err != nil {
		return err
	}
	return s.Store.Delete(id)
}

func (s *faultStore) Get(id int) (*core.SessionSnapshot, bool, error) {
	if err := s.enter("Get", id); err != nil {
		return nil, false, err
	}
	return s.Store.Get(id)
}

func (s *faultStore) All() (map[int]*core.SessionSnapshot, int, error) {
	if err := s.enter("All", 0); err != nil {
		return nil, 0, err
	}
	return s.Store.All()
}

// sampledWriter remembers what a counter read when the first byte of the
// response — status line or body — was handed to it.
type sampledWriter struct {
	*httptest.ResponseRecorder
	counter     *obs.Counter
	wrote       bool
	atFirstByte int64
}

func (w *sampledWriter) sample() {
	if !w.wrote {
		w.wrote, w.atFirstByte = true, w.counter.Value()
	}
}

func (w *sampledWriter) WriteHeader(code int) {
	w.sample()
	w.ResponseRecorder.WriteHeader(code)
}

func (w *sampledWriter) Write(b []byte) (int, error) {
	w.sample()
	return w.ResponseRecorder.Write(b)
}

// storeMutations are the Store methods whose failure loses durable state
// and must be counted in subdex_wal_append_failures_total; the other two
// of the six, Get and All, are reads.
var storeMutations = map[string]bool{"Create": true, "AppendOp": true, "Shed": true, "Delete": true}

// faultRig is one server over a fault store, with a hand clock and a
// janitor that never ticks on its own.
type faultRig struct {
	s      *Server
	h      http.Handler
	store  *faultStore
	offset atomic.Int64 // how far the hand clock has been pushed
}

func newFaultRig(t *testing.T, db *dataset.DB) *faultRig {
	t.Helper()
	r := &faultRig{store: &faultStore{Store: tempStore(t)}}
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	s, err := NewWithOptionsCtx(context.Background(), db, lightConfig(), Options{
		Store:           r.store,
		SessionTTL:      time.Minute,
		janitorInterval: 24 * time.Hour,
		clock:           func() time.Time { return base.Add(time.Duration(r.offset.Load())) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	r.s, r.h = s, s.Handler()
	return r
}

// session creates a session that has taken one step and, if shed, has
// left memory for the store since; it returns the session's path.
func (r *faultRig) session(t *testing.T, shed bool) string {
	t.Helper()
	id, ref := r.s.table.create(core.UserDriven, query.Description{})
	if ref != nil {
		t.Fatal(ref.msg)
	}
	sess := fmt.Sprintf("/sessions/%d", id)
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest("GET", sess+"/step", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("setup step: %d %s", rec.Code, rec.Body)
	}
	if shed {
		r.offset.Add(int64(time.Hour))
		if n := r.s.EvictIdle(); n != 1 {
			t.Fatalf("setup shed %d sessions, want 1", n)
		}
	}
	return sess
}

// TestStoreFaultIsNeverSilent is the durability contract of the
// log-before-respond path, checked on the code that runs: every request of
// the route table is replayed — on a live session and on a shed one — over
// a store that fails one method from its k-th call on, for every method
// and every k the request reaches. Whatever failed, the client sees a 5xx
// — never success, and never a 404 that reports a record gone whose
// bytes still exist; a failed mutation is counted in subdex_wal_append_failures_total,
// once per failure, and the count has risen before the first byte of the
// response is written. Boot (All) and the janitor (Shed) reach the store
// from no route and have their own rows. A new Store call on any existing
// route is covered as it stands; a new route is a row of routeCases.
func TestStoreFaultIsNeverSilent(t *testing.T) {
	db, err := gen.Yelp(gen.Config{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected store fault")
	reached := make(map[string]int) // method → replays in which it failed

	// replay sends row i of the route table to a fresh server whose store
	// fails the calls of method past the first skip (none when method is
	// ""), checks the contract if any failed, and returns the store's
	// counts.
	replay := func(i int, shed bool, method string, skip int) (calls map[string]int, fired int) {
		r := newFaultRig(t, db)
		c := routeCases(r.session(t, shed))[i]
		r.store.arm(map[string]error{method: injected}, skip)
		before := r.s.walFailures.Value()
		w := &sampledWriter{ResponseRecorder: httptest.NewRecorder(), counter: r.s.walFailures}
		r.h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if calls, fired = r.store.counts(); fired == 0 {
			return calls, 0
		}
		reached[method]++
		what := fmt.Sprintf("Store.%s failing from call %d on %s %s (shed=%t)", method, skip+1, c.method, c.path, shed)
		if w.Code < 500 {
			t.Errorf("%s: answered %d %.60s, want a 5xx", what, w.Code, w.Body)
		}
		if storeMutations[method] {
			if got := r.s.walFailures.Value() - before; got != int64(fired) {
				t.Errorf("%s: %d failed mutation(s), subdex_wal_append_failures_total rose by %d", what, fired, got)
			}
			if got := w.atFirstByte - before; got != int64(fired) {
				t.Errorf("%s: the response's first byte went out with %d of %d failure(s) counted", what, got, fired)
			}
		}
		return calls, fired
	}
	for i := range routeCases("") {
		for _, shed := range []bool{false, true} {
			calls, _ := replay(i, shed, "", 0)
			for method, n := range calls {
				for k := 0; k < n; k++ {
					if _, fired := replay(i, shed, method, k); fired == 0 {
						t.Errorf("row %d (shed=%t): Store.%s ran %d time(s) unarmed and its call %d never came", i, shed, method, n, k+1)
					}
				}
			}
		}
	}

	t.Run("boot", func(t *testing.T) {
		store := &faultStore{Store: tempStore(t)}
		store.arm(map[string]error{"All": injected}, 0)
		s, err := NewWithOptionsCtx(context.Background(), db, lightConfig(), Options{Store: store})
		if err == nil {
			s.Close()
			t.Fatal("a server whose store cannot be read at boot came up, serving an empty session table")
		}
		reached["All"]++
	})

	// The janitor has no client to refuse; what is left of the contract is
	// the count, and that a stale shed — the store protecting newer
	// durable state — is not a failure.
	for name, c := range map[string]struct {
		err  error
		want int64
	}{
		"janitor/shed fails":   {injected, 1},
		"janitor/shed refused": {fmt.Errorf("%w: injected", sessionstore.ErrStaleShed), 0},
	} {
		t.Run(name, func(t *testing.T) {
			r := newFaultRig(t, db)
			r.session(t, false)
			r.store.arm(map[string]error{"Shed": c.err}, 0)
			r.offset.Add(int64(time.Hour))
			if n := r.s.EvictIdle(); n != 1 {
				t.Fatalf("evicted %d sessions, want 1", n)
			}
			if _, fired := r.store.counts(); fired != 1 {
				t.Fatalf("%d sheds failed, want 1", fired)
			}
			if got := r.s.walFailures.Value(); got != c.want {
				t.Errorf("subdex_wal_append_failures_total = %d after the shed answered %q, want %d", got, c.err, c.want)
			}
			reached["Shed"]++
		})
	}

	for _, method := range []string{"Create", "AppendOp", "Shed", "Delete", "Get", "All"} {
		if reached[method] == 0 {
			t.Errorf("no row reached a failing Store.%s: the table lost its coverage of that method", method)
		}
	}
	t.Logf("replays in which a call failed, by method: %v", reached)
}
