package sessionstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCrashImageOpensClean copies the bytes of a still-open store's log —
// what a crash leaves, NULs allocated ahead included — and opens the
// copy: the same sessions, ops and next id, and no truncation.
func TestCrashImageOpensClean(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, -1)
	for id := 1; id <= 3; id++ {
		if err := fs.Create(id, snap("TRUE")); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < id; seq++ {
			if err := fs.AppendOp(id, seq, stepOp("")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Delete(3); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !fs.noPrealloc && int64(len(image)) <= fs.end {
		t.Fatalf("no space allocated ahead: file %d bytes, log %d", len(image), fs.end)
	}
	want, wantNext, _ := fs.All()

	re := openFile(t, writeWAL(t, image), -1)
	if rec := re.Recovery(); rec.Truncated || rec.Records != 10 {
		t.Fatalf("crash image: %+v, want 10 records and no truncation", rec)
	}
	got, next, _ := re.All()
	if !reflect.DeepEqual(got, want) || next != wantNext {
		t.Fatalf("crash image replays differently:\n got %+v next %d\nwant %+v next %d", got, next, want, wantNext)
	}
}

// TestAppendWhenPreallocateFails: allocating ahead is an optimisation, so
// its failure is never the append's. An unsupported file system is asked
// once; any other error is retried by the next append, which extends the
// file as a plain write.
func TestAppendWhenPreallocateFails(t *testing.T) {
	defer func(p func(*os.File, int64, int64) error) { preallocate = p }(preallocate)
	for _, tc := range []struct {
		err       error
		wantCalls int
	}{
		{errors.New("no space left on device"), 4},
		{errors.ErrUnsupported, 1},
	} {
		t.Run(tc.err.Error(), func(t *testing.T) {
			calls := 0
			preallocate = func(*os.File, int64, int64) error { calls++; return tc.err }
			dir := t.TempDir()
			fs := openFile(t, dir, -1)
			if err := fs.Create(1, snap("TRUE")); err != nil {
				t.Fatal(err)
			}
			for seq := 0; seq < 3; seq++ {
				if err := fs.AppendOp(1, seq, stepOp("")); err != nil {
					t.Fatal(err)
				}
			}
			if calls != tc.wantCalls {
				t.Errorf("preallocate called %d times, want %d", calls, tc.wantCalls)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, WALFileName))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.IndexByte(raw, 0) >= 0 {
				t.Error("log holds NULs without preallocation")
			}
			re := openFile(t, dir, -1)
			if s, ok, _ := re.Get(1); !ok || len(s.Ops) != 3 || re.Recovery().Truncated {
				t.Fatalf("reopen: %+v ok=%t %+v", s, ok, re.Recovery())
			}
		})
	}
}
