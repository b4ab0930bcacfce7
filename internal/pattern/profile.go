package pattern

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gedlib/internal/obs"
)

// SetProfile attaches a profiler sink to the plan: every enumeration
// flushes its tallies — candidates examined, intersection steps,
// consistency probes, bindings materialized — into ms when the matcher
// returns to the pool (one batch of atomic adds per enumeration, so the
// per-step accounting stays plain integer arithmetic). The sink is
// carried across Rebind, so a validator that rebases per delta keeps
// one accumulating profile per rule. nil detaches.
func (pl *Plan) SetProfile(ms *obs.MatchStats) { pl.prof = ms }

// Profile returns the plan's attached profiler sink, or nil.
func (pl *Plan) Profile() *obs.MatchStats { return pl.prof }

// Fingerprint renders the compiled plan's identity compactly: the
// variable binding order, the extension strategy (always ";isect", the
// worst-case-optimal intersection; kept so fingerprints stay comparable
// across releases), how many constant literals were pushed down, and
// where in that order each Pruner condition closes (Y the settling one,
// Xk the refuting ones, "-" for one that reads no variable) — enough to
// tell from metrics alone which plan shape a rule is running, why a
// full scan of it is cheap, and to notice when a recompile changed it.
func (pl *Plan) Fingerprint() string {
	var b strings.Builder
	for i, vi := range pl.order {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(pl.vars[vi]))
	}
	b.WriteString(";isect")
	nf := 0
	for _, fs := range pl.varFilt {
		nf += len(fs)
	}
	if nf > 0 {
		fmt.Fprintf(&b, ";push=%d", nf)
	}
	for k, reads := range pl.closes {
		at := "-"
		for i, x := range pl.order {
			if slices.Contains(reads, x) {
				at = strconv.Itoa(i)
			}
		}
		if k == 0 {
			b.WriteString(";close=Y@" + at)
		} else {
			fmt.Fprintf(&b, ",X%d@%s", k, at)
		}
	}
	return b.String()
}

// flushProfile adds one enumeration's tallies to the plan's sink and
// zeroes them for the matcher's next pooled use.
func (pl *Plan) flushProfile(m *matcher) {
	if ms := pl.prof; ms != nil {
		ms.Candidates.Add(m.nCand)
		ms.IntersectSteps.Add(m.nIsect)
		ms.ProbeSteps.Add(m.nProbe)
		ms.Bindings.Add(m.nBind)
		ms.Pruned.Add(m.nPrune)
	}
	m.nCand, m.nIsect, m.nProbe, m.nBind, m.nPrune = 0, 0, 0, 0, 0
}
