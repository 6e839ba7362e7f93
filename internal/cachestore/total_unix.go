//go:build unix

package cachestore

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive lock on f, waiting for it; closing f
// releases it. Each lock is on its own open file, so it excludes other
// goroutines of this process as well as other processes.
func lockFile(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_EX) }
