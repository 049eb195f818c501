package core

import (
	"flag"

	"overcast/internal/overlay"
)

// SolverOptions are the oracle-evaluation knobs a solve forwards unchanged
// to every batch runner it builds (phase loop, beta prestep, surplus pass,
// warm repair). Outputs are bit-identical for every value of either; the
// knobs move wall-clock only.
type SolverOptions struct {
	// Workers sets the oracle worker-pool size: <= 0 means GOMAXPROCS (the
	// overlay.BatchOptions rule), and Workers=1 forces the sequential path.
	Workers int
	// Plane selects the shared SSSP plane mode (see overlay.PlaneMode; the
	// zero value is PlaneSubtree). Irrelevant under fixed routing.
	Plane overlay.PlaneMode
}

// RegisterFlags binds o to -workers and -plane on fs, the spelling every
// command that exposes the solver knobs shares.
func (o *SolverOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Workers, "workers", o.Workers, "oracle worker-pool size (0 = GOMAXPROCS); outputs are worker-count independent")
	fs.Var(&o.Plane, "plane", "shared SSSP plane mode: subtree, full or off; outputs are mode independent")
}
