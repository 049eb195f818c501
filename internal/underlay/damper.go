package underlay

import (
	"math"
	"sort"

	"overcast/internal/graph"
)

// DamperConfig holds the route-flap damping constants. The shape follows the
// BGP damping design (and the yggdrasil treesim notes): flaps charge a
// penalty, the penalty decays exponentially in trace time, and a link whose
// penalty crossed the suppress threshold stays administratively down until
// the penalty decays below the reuse threshold.
type DamperConfig struct {
	// Penalty is charged to a link on every recovery (the completed flap).
	// Default 1000.
	Penalty float64
	// HalfLife is the exponential decay half-life of the penalty, in trace
	// time. Default 10.
	HalfLife float64
	// Suppress is the threshold at or above which recoveries are held.
	// Default 2500: a third flap inside a half-life suppresses.
	Suppress float64
	// Reuse is the threshold below which a held recovery is released.
	// Default 800.
	Reuse float64
}

func (c *DamperConfig) normalize() {
	if c.Penalty <= 0 {
		c.Penalty = 1000
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 10
	}
	if c.Suppress <= 0 {
		c.Suppress = 2500
	}
	if c.Reuse <= 0 || c.Reuse >= c.Suppress {
		c.Reuse = c.Suppress * 0.32
	}
}

// Damper filters an underlay event stream through per-link flap damping.
// Feed events in time order through Process and apply what it returns; call
// Flush at the trace horizon to release any still-held recoveries whose
// penalty has decayed. The damper is purely event-time driven and therefore
// deterministic: two replays of one trace produce bitwise-identical filtered
// streams.
type Damper struct {
	cfg     DamperConfig
	penalty []float64
	lastT   []float64
	// held marks links whose recovery was suppressed: physically repaired,
	// administratively kept down until the penalty decays to Reuse.
	held []bool

	// Suppressed counts recoveries held at the suppress threshold; Released
	// counts held recoveries later emitted by decay.
	Suppressed, Released int
}

// NewDamper builds a damper over a graph's edge space.
func NewDamper(g *graph.Graph, cfg DamperConfig) *Damper {
	cfg.normalize()
	return &Damper{
		cfg:     cfg,
		penalty: make([]float64, g.NumEdges()),
		lastT:   make([]float64, g.NumEdges()),
		held:    make([]bool, g.NumEdges()),
	}
}

// decay advances e's penalty to time t.
func (d *Damper) decay(e graph.EdgeID, t float64) {
	if dt := t - d.lastT[e]; dt > 0 {
		d.penalty[e] *= math.Exp2(-dt / d.cfg.HalfLife)
		d.lastT[e] = t
	}
}

// releaseDue emits LinkUp events (stamped t) for every held link whose
// penalty has decayed below the reuse threshold, in ascending edge order.
func (d *Damper) releaseDue(t float64, out []Event) []Event {
	var due []graph.EdgeID
	for e, h := range d.held {
		if !h {
			continue
		}
		d.decay(e, t)
		if d.penalty[e] < d.cfg.Reuse {
			due = append(due, e)
		}
	}
	sort.Ints(due)
	for _, e := range due {
		d.held[e] = false
		d.Released++
		out = append(out, Event{Time: t, Kind: LinkUp, Edge: e})
	}
	return out
}

// Process filters one event. It returns the events to apply now, in order:
// any held recoveries that decayed due before ev.Time, then ev itself unless
// damping suppressed it. LinkDown and Drift always pass through (a dead link
// must never be routed over; drift is not a flap); a LinkUp on a link at or
// above the suppress threshold is held and the link stays down.
func (d *Damper) Process(ev Event) []Event {
	out := d.releaseDue(ev.Time, nil)
	switch ev.Kind {
	case LinkDown:
		// The link failed again; a pending held recovery is obsolete.
		if d.held[ev.Edge] {
			d.held[ev.Edge] = false
		}
		out = append(out, ev)
	case LinkUp:
		d.decay(ev.Edge, ev.Time)
		d.penalty[ev.Edge] += d.cfg.Penalty
		if d.penalty[ev.Edge] >= d.cfg.Suppress {
			d.held[ev.Edge] = true
			d.Suppressed++
		} else {
			out = append(out, ev)
		}
	default:
		out = append(out, ev)
	}
	return out
}

// Flush releases every held recovery whose penalty has decayed below the
// reuse threshold by time t. Links still above it remain suppressed (Held
// reports how many).
func (d *Damper) Flush(t float64) []Event {
	return d.releaseDue(t, nil)
}

// Held returns the number of links with a suppressed recovery outstanding.
func (d *Damper) Held() int {
	n := 0
	for _, h := range d.held {
		if h {
			n++
		}
	}
	return n
}
