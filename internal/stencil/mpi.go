package stencil

import (
	"time"

	"charmgo/internal/mpi"
)

// RunMPI runs the mpi4py-style baseline: one block per rank, bulk-synchronous
// Irecv/Isend/Waitall halo exchange, no migration (paper section V-A). The
// kernel and decomposition are identical to the charm version.
func RunMPI(p Params) (Result, error) {
	sx, sy, sz, err := p.Validate()
	if err != nil {
		return Result{}, err
	}
	n := p.NumBlocks()
	checksums := make([]float64, 1)
	walls := make([]float64, n)
	works := make([]float64, n)
	mpi.Run(n, func(c *mpi.Comm) {
		rank := c.Rank()
		ix := rank / (p.BY * p.BZ)
		iy := (rank / p.BZ) % p.BY
		iz := rank % p.BZ
		bd := newBlockData(sx, sy, sz)
		bd.fill(ix*sx, iy*sy, iz*sz)

		// neighbor ranks per direction (-1 = none)
		nbr := [numDirs]int{}
		for d := 0; d < numDirs; d++ {
			nx, ny, nz := ix, iy, iz
			switch d {
			case dirXLo:
				nx--
			case dirXHi:
				nx++
			case dirYLo:
				ny--
			case dirYHi:
				ny++
			case dirZLo:
				nz--
			case dirZHi:
				nz++
			}
			if nx < 0 || nx >= p.BX || ny < 0 || ny >= p.BY || nz < 0 || nz >= p.BZ {
				nbr[d] = -1
			} else {
				nbr[d] = (nx*p.BY+ny)*p.BZ + nz
			}
		}

		c.Barrier()
		t0 := time.Now()
		var work float64
		var kmin time.Duration
		for iter := 0; iter < p.Iters; iter++ {
			var reqs []*mpi.Request
			var dirs []int
			for d := 0; d < numDirs; d++ {
				if nbr[d] >= 0 {
					reqs = append(reqs, c.Irecv(nbr[d], d))
					dirs = append(dirs, d)
				}
			}
			for d := 0; d < numDirs; d++ {
				if nbr[d] >= 0 {
					c.Isend(nbr[d], opposite(d), bd.packFace(d))
				}
			}
			mpi.Waitall(reqs)
			for i, r := range reqs {
				bd.unpackGhost(dirs[i], r.Wait().([]float64))
			}
			work += measureWork(p.Imbalance, func() {
				tc := time.Now()
				bd.compute()
				kernel := time.Since(tc)
				if p.WorkScale > 0 {
					SyntheticWork(p.WorkScale * float64(sx*sy*sz))
				}
				if p.Imbalance {
					imbalance(kernel, &kmin, rank, n, iter)
				}
			}).Seconds()
		}
		c.Barrier()
		wall := time.Since(t0).Seconds()
		sum := c.Reduce(0, mpi.Sum, bd.checksum())
		walls[rank] = wall
		works[rank] = work
		if rank == 0 {
			checksums[0] = sum.(float64)
		}
	})
	maxWall := 0.0
	for _, w := range walls {
		if w > maxWall {
			maxWall = w
		}
	}
	return Result{
		Impl:          "mini-mpi",
		PEs:           n,
		Blocks:        n,
		Checksum:      checksums[0],
		WallSeconds:   maxWall,
		TimePerStepMS: maxWall / float64(p.Iters) * 1000,
		MaxOverAvg:    maxOverAvg(works),
		PEWork:        works,
	}, nil
}
