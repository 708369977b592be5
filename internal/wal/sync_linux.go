//go:build linux

package wal

import (
	"os"
	"syscall"
)

// fileSync forces f's data (and the size metadata needed to read it
// back) to stable storage. On Linux this is fdatasync: appends to the
// journal never need the mtime/atime flush a full
// fsync pays for, and on ext4 that skipped metadata commit is a
// measurable slice of every group commit.
func fileSync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if errno, ok := err.(syscall.Errno); !ok || errno != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
