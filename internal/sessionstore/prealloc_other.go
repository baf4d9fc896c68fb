//go:build !linux

package sessionstore

import (
	"errors"
	"os"
)

// Off Linux the log grows by extending writes and syncs with fsync.
var preallocate = func(*os.File, int64, int64) error { return errors.ErrUnsupported }

func syncData(f *os.File) error { return f.Sync() }
