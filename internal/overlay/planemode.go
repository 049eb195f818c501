package overlay

import "fmt"

// PlaneMode selects how a BatchRunner serves plane-aware oracles. Outputs
// are bitwise identical in both modes; they differ only in how much
// Dijkstra work a batch repeats.
//
// PlaneMode implements flag.Value, so commands can take it as
// -plane subtree|off.
type PlaneMode int

const (
	// PlaneSubtree (the zero value) runs the shared SSSP plane with
	// cross-round dirty-source repair: rows persist across batches, rows
	// whose stored read paths took no touched edge since their fill are
	// skipped (their fill epoch stays put), and a row with a dirty read
	// path is either repaired by resuming Dijkstra over only the affected
	// subtrees (routing.RepairSubtreesInto, rooted below the touched tree
	// edges the ledger journal names) or refilled in full. A row repairs
	// when its ledger journal window since its fill holds fewer than n/2
	// touches (n the node count) and the bit-identity certificate holds,
	// and refills otherwise.
	PlaneSubtree PlaneMode = iota
	// PlaneOff disables the plane: every oracle runs its own per-member
	// Dijkstras. The reference PlaneSubtree is diffed against.
	PlaneOff
)

var planeModeNames = [...]string{PlaneSubtree: "subtree", PlaneOff: "off"}

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

// Set parses a flag spelling (subtree, off) into m.
func (m *PlaneMode) Set(s string) error {
	for i, name := range planeModeNames {
		if s == name {
			*m = PlaneMode(i)
			return nil
		}
	}
	return fmt.Errorf("overlay: unknown plane mode %q (want subtree or off)", s)
}
