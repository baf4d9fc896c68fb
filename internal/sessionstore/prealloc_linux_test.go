package sessionstore

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedWriteKeepsLaterRecords: a write cut short by the file-size
// limit leaves a fragment of its record in the log. The next append is
// acknowledged, so it must land where replay reaches it — over the
// fragment, not behind it.
func TestFailedWriteKeepsLaterRecords(t *testing.T) {
	dir := t.TempDir()
	fs := openFile(t, dir, -1)
	for id := 1; id <= 2; id++ {
		if err := fs.Create(id, snap("TRUE")); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	logLen := len(bytes.TrimRight(raw, "\x00"))

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	capped := syscall.Rlimit{Cur: uint64(logLen + 40), Max: old.Max}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	failed := fs.AppendOp(1, 0, stepOp("1-1"))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatalf("restoring the file-size limit: %v", err)
	}
	if failed == nil {
		t.Fatal("an append past the file-size limit succeeded")
	}
	if err := fs.AppendOp(2, 0, stepOp("2-1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re := openFile(t, dir, -1)
	if rec := re.Recovery(); rec.Truncated || rec.Records != 3 {
		t.Fatalf("recovery: %+v, want 3 records and no truncation", rec)
	}
	if s, ok, _ := re.Get(2); !ok || len(s.Ops) != 1 || s.Ops[0].OpID != "2-1" {
		t.Fatalf("session 2 lost its acknowledged op: ok=%t %+v", ok, s)
	}
}
