package overlay

import "fmt"

// PlaneMode selects how a BatchRunner serves plane-aware oracles. Outputs
// are bitwise identical in every mode; the modes differ only in how much
// Dijkstra work a batch repeats.
//
// PlaneMode implements flag.Value, so commands can take it as
// -plane subtree|full|off.
type PlaneMode int

const (
	// PlaneSubtree (the zero value) runs the shared SSSP plane with
	// cross-round dirty-source repair: rows persist across batches, rows
	// whose stored trees took no touched edge are skipped, and rows with a
	// dirty read path are repaired by resuming Dijkstra over only the
	// affected subtrees (routing.RepairSubtreesInto, rooted below the
	// touched tree edges the ledger journal names) whenever the bit-identity
	// certificate holds, falling back to a full refill otherwise.
	PlaneSubtree PlaneMode = iota
	// PlaneFull keeps the persistent plane and the same classifier, but
	// refills every dirty row in full. Faster than PlaneSubtree on instances
	// of at most about 100 nodes, where a whole-row Dijkstra costs little
	// more than a repair attempt (root replay, subtree walk, frontier
	// seeding) and attempts that bail pay for both.
	PlaneFull
	// PlaneOff disables the plane: every oracle runs its own per-member
	// Dijkstras. The reference the other modes are diffed against.
	PlaneOff
)

var planeModeNames = [...]string{PlaneSubtree: "subtree", PlaneFull: "full", PlaneOff: "off"}

// Valid reports an error when m is not one of the declared modes.
func (m PlaneMode) Valid() error {
	if m < 0 || int(m) >= len(planeModeNames) {
		return fmt.Errorf("overlay: unknown plane mode %d", int(m))
	}
	return nil
}

// String returns the mode's flag spelling.
func (m PlaneMode) String() string {
	if m.Valid() != nil {
		return fmt.Sprintf("PlaneMode(%d)", int(m))
	}
	return planeModeNames[m]
}

// Set parses a flag spelling (subtree, full, off) into m.
func (m *PlaneMode) Set(s string) error {
	for i, name := range planeModeNames {
		if s == name {
			*m = PlaneMode(i)
			return nil
		}
	}
	return fmt.Errorf("overlay: unknown plane mode %q (want subtree, full or off)", s)
}
