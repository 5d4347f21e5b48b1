//go:build !unix

package simcluster

import "time"

// procCPU reports no process clock on this platform; measureCharmMsg
// falls back to wall time.
func procCPU() (time.Duration, bool) { return 0, false }
