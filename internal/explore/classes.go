package explore

import "webracer/internal/obs"

// ClassStats summarizes HB-equivalence pruning for one sweep: how many
// executions ran, how many distinct trace classes they fell into, how
// many executions fell into a class already explored, and how many
// perturbations the steering heuristic flagged as targeting an event
// pair not yet ordered both ways. Executions − Pruned counts the class
// representatives plus the executions excluded from classification. The
// struct marshals deterministically and folds into the byte-stable
// metrics export as the explore.classes.* counters.
type ClassStats struct {
	// Executions counts sweep units executed (classification skips
	// neither an execution nor its detector pass).
	Executions int `json:"executions"`
	// Distinct counts distinct canonical trace classes observed.
	Distinct int `json:"distinct"`
	// Pruned counts executions whose class was already explored.
	Pruned int `json:"pruned"`
	// Steered counts steering decisions: perturbations whose planned
	// delay targeted a conflicting event pair not yet ordered both ways
	// in any explored class (seed sweeps are unguided, so only delay-one
	// sweeps steer).
	Steered int `json:"steered"`
}

// Fold adds the stats to a metrics registry under the explore.classes.*
// counters of the byte-stable export.
func (s ClassStats) Fold(m *obs.Metrics) {
	if m == nil {
		return
	}
	m.Add("explore.classes.executions", int64(s.Executions))
	m.Add("explore.classes.distinct", int64(s.Distinct))
	m.Add("explore.classes.pruned", int64(s.Pruned))
	m.Add("explore.classes.steered", int64(s.Steered))
}

// ClassSet tracks the canonical trace classes of one sweep, plus the
// orientation index that drives flip-an-unexplored-racy-pair steering.
// It is driven from the sweep's in-order fold, so it needs no locking
// and its evolution — hence every counter — is identical at any worker
// count.
type ClassSet struct {
	index map[string]int
	// pairs maps a conflicting-pair key (location + the two op labels,
	// canonically ordered) to the orientation bits seen across explored
	// classes: bit 1 = first-before-second, bit 2 = the reverse.
	pairs map[string]uint8
	stats ClassStats
}

// NewClassSet returns an empty class tracker.
func NewClassSet() *ClassSet {
	return &ClassSet{index: map[string]int{}, pairs: map[string]uint8{}}
}

// Observe classifies one completed execution by its fingerprint and
// reports whether it is the first member of its class (the class
// representative). Repeats count as pruned.
func (cs *ClassSet) Observe(fp string) (idx int, first bool) {
	cs.stats.Executions++
	if i, ok := cs.index[fp]; ok {
		cs.stats.Pruned++
		return i, false
	}
	i := len(cs.index)
	cs.index[fp] = i
	cs.stats.Distinct++
	return i, true
}

// Degraded records an execution excluded from classification (an
// interrupted run is partial and wall-clock-dependent, so it joins no
// class).
func (cs *ClassSet) Degraded() { cs.stats.Executions++ }

// NotePair records one observed orientation of a conflicting event pair.
// Key construction is the caller's (the sweep drivers build
// location+label keys); forward distinguishes the two orientations of
// the same key.
func (cs *ClassSet) NotePair(key string, forward bool) {
	bit := uint8(1)
	if !forward {
		bit = 2
	}
	cs.pairs[key] |= bit
}

// OneWay reports whether any recorded conflicting pair matching the
// predicate has been ordered in only one direction across the explored
// classes — the pairs whose flip would exhibit a new class, where
// steering points the remaining budget.
func (cs *ClassSet) OneWay(match func(key string) bool) bool {
	for key, bits := range cs.pairs {
		if (bits == 1 || bits == 2) && match(key) {
			return true
		}
	}
	return false
}

// NoteSteered counts one steering decision.
func (cs *ClassSet) NoteSteered() { cs.stats.Steered++ }

// Stats returns the accumulated counters.
func (cs *ClassSet) Stats() ClassStats { return cs.stats }
