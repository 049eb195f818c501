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
	// affected subtrees (routing.RepairSubtreesInto) whenever the
	// bit-identity certificate holds, falling back to a full refill
	// otherwise. An inverted edge->rows index drives the classification.
	PlaneSubtree PlaneMode = iota
	// PlaneFull keeps the persistent plane and its skip decisions but
	// refills every dirty row in full, classifying rows by replaying the
	// ledger journal against each row's stored tree instead of maintaining
	// the inverted index. Cheaper than PlaneSubtree on small instances,
	// where index upkeep outweighs the Dijkstra work it saves.
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
