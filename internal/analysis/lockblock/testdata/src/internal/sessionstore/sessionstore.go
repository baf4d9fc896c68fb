// Package sessionstore stands in for subdex/internal/sessionstore: the
// one package exempt from the file-I/O-under-lock rule. Its WAL writes
// under the writer mutex by design (ordering), moving only the fsync
// outside — so none of these may be flagged. The universal rules still
// apply: a time.Sleep under the same lock stays a finding.
package sessionstore

import (
	"os"
	"sync"
	"time"
)

// WAL serializes appends under wmu.
type WAL struct {
	wmu sync.Mutex
	f   *os.File
}

// Append writes the record under the lock — the exempted idiom.
func (w *WAL) Append(line []byte) error {
	w.wmu.Lock()
	_, err := w.f.Write(line) // no want: sessionstore is exempt
	w.wmu.Unlock()
	if err != nil {
		return err
	}
	return w.f.Sync()
}

// Compact rewrites the log with the lock held.
func (w *WAL) Compact() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := os.WriteFile("wal.tmp", nil, 0o644); err != nil { // no want: sessionstore is exempt
		return err
	}
	return os.Rename("wal.tmp", "wal") // no want: sessionstore is exempt
}

// SleepUnderLock is still wrong everywhere.
func (w *WAL) SleepUnderLock() {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while w.wmu is held`
}
