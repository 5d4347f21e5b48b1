//go:build linux

package stencil

import (
	"syscall"
	"time"
	"unsafe"
)

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the calling OS thread's CPU time; ok is false when the
// clock cannot be read.
func threadCPU() (d time.Duration, ok bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}
