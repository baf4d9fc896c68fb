package sessionstore

import (
	"os"
	"syscall"
)

// preallocate allocates and sizes f's blocks over [off, off+n) (fallocate
// mode 0; KEEP_SIZE would leave a size change in every append's sync).
var preallocate = func(f *os.File, off, n int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, off, n)
}

// syncData is fdatasync: the data, and only the metadata needed to read it.
func syncData(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }
