// Package stencil implements the paper's stencil3d benchmark (section V-A):
// a 7-point Jacobi stencil on a 3D grid decomposed into equal blocks, with
// charmgo and mini-MPI implementations sharing one compute kernel, a
// synthetic load-imbalance mode (section V-B), and a sequential reference
// for correctness checks.
package stencil

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Params describes one stencil3d run.
type Params struct {
	// Global grid dimensions.
	GridX, GridY, GridZ int
	// Block counts per dimension; each block is a chare (or an MPI rank).
	BX, BY, BZ int
	// Iters is the number of Jacobi iterations.
	Iters int
	// LBPeriod triggers AtSync load balancing every LBPeriod iterations in
	// the charm version (0 = off). The paper uses 30.
	LBPeriod int
	// Imbalance enables the paper's synthetic load model: block i's compute
	// is extended by a factor alpha_i that varies with the block index and
	// iteration (section V-B).
	Imbalance bool
	// WorkScale adds deterministic extra compute per cell (multiplier on the
	// synthetic busy-work unit); 0 means pure stencil.
	WorkScale float64
}

// Validate checks divisibility and returns block-local dimensions.
func (p Params) Validate() (sx, sy, sz int, err error) {
	if p.BX <= 0 || p.BY <= 0 || p.BZ <= 0 {
		return 0, 0, 0, fmt.Errorf("stencil: invalid block counts %dx%dx%d", p.BX, p.BY, p.BZ)
	}
	if p.GridX%p.BX != 0 || p.GridY%p.BY != 0 || p.GridZ%p.BZ != 0 {
		return 0, 0, 0, fmt.Errorf("stencil: grid %dx%dx%d not divisible by blocks %dx%dx%d",
			p.GridX, p.GridY, p.GridZ, p.BX, p.BY, p.BZ)
	}
	return p.GridX / p.BX, p.GridY / p.BY, p.GridZ / p.BZ, nil
}

// NumBlocks returns the total block count.
func (p Params) NumBlocks() int { return p.BX * p.BY * p.BZ }

// initValue is the deterministic initial condition for global cell (x,y,z).
func initValue(x, y, z int) float64 {
	h := uint64(x)*2654435761 ^ uint64(y)*40503 ^ uint64(z)*2246822519
	h ^= h >> 13
	h *= 1099511628211
	h ^= h >> 29
	return float64(h%1000) / 1000.0
}

// dir encodes the six face-exchange directions.
const (
	dirXLo = iota
	dirXHi
	dirYLo
	dirYHi
	dirZLo
	dirZHi
	numDirs
)

// opposite returns the direction a received face came from, from the
// sender's perspective.
func opposite(d int) int { return d ^ 1 }

// block is the shared per-block compute state used by both implementations.
// Layout: (sx+2) x (sy+2) x (sz+2) with one ghost layer; index (x,y,z) ->
// ((x*(sy+2))+y)*(sz+2)+z.
type Grid struct {
	SX, SY, SZ int
	A, B       []float64
}

func newBlockData(sx, sy, sz int) *Grid {
	n := (sx + 2) * (sy + 2) * (sz + 2)
	return &Grid{SX: sx, SY: sy, SZ: sz, A: make([]float64, n), B: make([]float64, n)}
}

func (bd *Grid) at(x, y, z int) int {
	return (x*(bd.SY+2)+y)*(bd.SZ+2) + z
}

// fill initializes interior cells from the global initial condition; the
// block covers global cells [ox, ox+sx) x [oy, ..) x [oz, ..).
func (bd *Grid) fill(ox, oy, oz int) {
	for x := 1; x <= bd.SX; x++ {
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				bd.A[bd.at(x, y, z)] = initValue(ox+x-1, oy+y-1, oz+z-1)
			}
		}
	}
}

// compute performs one 7-point Jacobi sweep from a into b and swaps them.
// This is the "Numba-JIT-compiled kernel" of the paper — in Go it is simply
// compiled code. It returns the interior cell count (for rate reporting).
func (bd *Grid) compute() int {
	sy2, sz2 := bd.SY+2, bd.SZ+2
	a, b := bd.A, bd.B
	for x := 1; x <= bd.SX; x++ {
		for y := 1; y <= bd.SY; y++ {
			base := (x*sy2+y)*sz2 + 1
			xm := ((x-1)*sy2+y)*sz2 + 1
			xp := ((x+1)*sy2+y)*sz2 + 1
			ym := (x*sy2+y-1)*sz2 + 1
			yp := (x*sy2+y+1)*sz2 + 1
			for z := 0; z < bd.SZ; z++ {
				i := base + z
				b[i] = (a[i] + a[xm+z] + a[xp+z] + a[ym+z] + a[yp+z] + a[i-1] + a[i+1]) / 7.0
			}
		}
	}
	bd.A, bd.B = bd.B, bd.A
	return bd.SX * bd.SY * bd.SZ
}

// packFace copies the interior boundary face for direction d into a buffer.
func (bd *Grid) packFace(d int) []float64 {
	switch d {
	case dirXLo, dirXHi:
		x := 1
		if d == dirXHi {
			x = bd.SX
		}
		out := make([]float64, bd.SY*bd.SZ)
		i := 0
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				out[i] = bd.A[bd.at(x, y, z)]
				i++
			}
		}
		return out
	case dirYLo, dirYHi:
		y := 1
		if d == dirYHi {
			y = bd.SY
		}
		out := make([]float64, bd.SX*bd.SZ)
		i := 0
		for x := 1; x <= bd.SX; x++ {
			for z := 1; z <= bd.SZ; z++ {
				out[i] = bd.A[bd.at(x, y, z)]
				i++
			}
		}
		return out
	default:
		z := 1
		if d == dirZHi {
			z = bd.SZ
		}
		out := make([]float64, bd.SX*bd.SY)
		i := 0
		for x := 1; x <= bd.SX; x++ {
			for y := 1; y <= bd.SY; y++ {
				out[i] = bd.A[bd.at(x, y, z)]
				i++
			}
		}
		return out
	}
}

// unpackGhost stores a face received from direction d into the ghost layer.
func (bd *Grid) unpackGhost(d int, data []float64) {
	switch d {
	case dirXLo, dirXHi:
		x := 0
		if d == dirXHi {
			x = bd.SX + 1
		}
		i := 0
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				bd.A[bd.at(x, y, z)] = data[i]
				i++
			}
		}
	case dirYLo, dirYHi:
		y := 0
		if d == dirYHi {
			y = bd.SY + 1
		}
		i := 0
		for x := 1; x <= bd.SX; x++ {
			for z := 1; z <= bd.SZ; z++ {
				bd.A[bd.at(x, y, z)] = data[i]
				i++
			}
		}
	default:
		z := 0
		if d == dirZHi {
			z = bd.SZ + 1
		}
		i := 0
		for x := 1; x <= bd.SX; x++ {
			for y := 1; y <= bd.SY; y++ {
				bd.A[bd.at(x, y, z)] = data[i]
				i++
			}
		}
	}
}

// checksum returns the sum over interior cells (correctness comparison).
func (bd *Grid) checksum() float64 {
	var s float64
	for x := 1; x <= bd.SX; x++ {
		for y := 1; y <= bd.SY; y++ {
			for z := 1; z <= bd.SZ; z++ {
				s += bd.A[bd.at(x, y, z)]
			}
		}
	}
	return s
}

// Alpha is the paper's synthetic load factor for block i of N at the given
// iteration (section V-B): blocks with i < 0.2N or i > 0.8N have a fixed
// factor of 10; interior blocks grow with the block index and oscillate with
// the iteration. The resulting max/average block load ratio is ~2.1-2.6.
func Alpha(i, n, iter int) float64 {
	fi := float64(i)
	fn := float64(n)
	if fi < 0.2*fn || fi > 0.8*fn {
		return 10
	}
	return 100*fi/fn + 5*float64(iter%10)
}

// imbalance extends a step by the synthetic load of section V-B: it busy-waits
// Alpha times the block's kernel time. The kernel time used is the fastest
// this block has measured so far (*kmin, updated here): a kernel that was
// descheduled or ran with a cold cache (a migrated block's first step)
// would otherwise be multiplied by Alpha (up to 125) into a burst of real
// work that no load-balancing window predicts.
func imbalance(kernel time.Duration, kmin *time.Duration, i, n, iter int) {
	if *kmin == 0 || kernel < *kmin {
		*kmin = kernel
	}
	BusyWait(time.Duration(float64(*kmin) * Alpha(i, n, iter)))
}

// measureWork runs f and returns its duration. With cpu set it is the CPU
// time of the OS thread that ran f, so that stretches the thread spent
// descheduled (other processes, or more PEs than cores) do not count as
// work; f then runs locked to its thread, so no other goroutine runs
// there, and is charged, while f is preempted. Imbalance runs set it: their
// per-PE work is the balance metric and the LB input, at microseconds per
// step. The lock costs kernel-bound runs, which only time whole solves, a
// few percent, so they keep wall time. Without a per-thread clock it falls
// back to wall time.
func measureWork(cpu bool, f func()) time.Duration {
	if !cpu {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, ok0 := threadCPU()
	t0 := time.Now()
	f()
	if c1, ok1 := threadCPU(); ok0 && ok1 {
		return c1 - c0
	}
	return time.Since(t0)
}

// SyntheticWork spins for roughly `units` abstract work units, returning a
// value to defeat dead-code elimination. One unit is a few ns of FP work.
func SyntheticWork(units float64) float64 {
	acc := 1.0
	n := int(units)
	for i := 0; i < n; i++ {
		acc += math.Sqrt(float64(i&1023) + acc)
		if acc > 1e12 {
			acc = 1
		}
	}
	return acc
}

// RunSequential runs the stencil on one big array as the ground truth and
// returns the final interior checksum.
func RunSequential(p Params) (float64, error) {
	if _, _, _, err := p.Validate(); err != nil {
		return 0, err
	}
	bd := newBlockData(p.GridX, p.GridY, p.GridZ)
	bd.fill(0, 0, 0)
	for it := 0; it < p.Iters; it++ {
		bd.compute()
	}
	return bd.checksum(), nil
}
