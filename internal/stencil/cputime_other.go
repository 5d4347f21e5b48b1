//go:build !linux

package stencil

import "time"

// threadCPU reports no per-thread clock on this platform; measureWork
// falls back to wall time.
func threadCPU() (time.Duration, bool) { return 0, false }
