package reason

import (
	"fmt"

	"gedlib/internal/obs"
)

// Observe attaches per-rule observability to the validator's compiled
// plans: a match profile (candidates, intersection vs probe steps,
// bindings, partial bindings a full scan abandoned — flushed by the
// matcher once per enumeration) accumulating
// into rule-labeled counters, and an info-style gauge naming each
// rule's current plan fingerprint. Profiles survive Rebase, which
// shares the plans; a plan that Rebind compiles again keeps its sink,
// and Rebase names the new plan in the gauge. The engine re-attaches
// only on a full recompile. A nil registry leaves the validator
// unobserved.
func (v *Validator) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	v.reg = reg
	for i, pl := range v.plans {
		name := ruleName(v.sigma[i].Name, i)
		pl.SetProfile(&obs.MatchStats{
			Candidates:     reg.Counter("ged_match_candidates_total", "candidate nodes examined by the matcher", "rule", name),
			IntersectSteps: reg.Counter("ged_match_intersect_steps_total", "posting-list runs fed to leapfrog intersection", "rule", name),
			ProbeSteps:     reg.Counter("ged_match_probe_steps_total", "per-candidate consistency probes", "rule", name),
			Bindings:       reg.Counter("ged_match_bindings_total", "complete bindings materialized", "rule", name),
			Pruned:         reg.Counter("ged_match_pruned_total", "partial bindings a full scan abandoned: X refuted or Y settled", "rule", name),
		})
		v.observePlan(i)
	}
}

// observePlan names rule i's current plan in the ged_match_plan_info
// gauge, when the validator is observed.
func (v *Validator) observePlan(i int) {
	if v.reg == nil {
		return
	}
	name := ruleName(v.sigma[i].Name, i)
	// A recompile may change the plan shape; retire the old
	// fingerprint series so exactly one is live per rule.
	v.reg.RemoveFamilyLabeled("ged_match_plan_info", "rule", name)
	v.reg.Gauge("ged_match_plan_info", "compiled plan identity per rule (value is always 1)",
		"rule", name, "plan", v.plans[i].Fingerprint()).Set(1)
}

// ruleName labels a rule for metrics: its declared name, or a stable
// positional fallback for anonymous rules.
func ruleName(name string, i int) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("rule%d", i)
}

// Observe attaches maintenance counters to the store (any may be nil):
// entries re-checked after a delta, entries dropped as repaired, and
// fresh violations admitted. Together they answer how much of the
// store's churn is recheck-survival versus new discovery.
func (st *ViolationStore) Observe(recheck, drop, fresh *obs.Counter) {
	st.ctrRecheck, st.ctrDrop, st.ctrFresh = recheck, drop, fresh
}
