//go:build unix

package simcluster

import (
	"syscall"
	"time"
)

// procCPU returns the CPU time (user + system) this process has used; ok
// is false when it cannot be read.
func procCPU() (d time.Duration, ok bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
