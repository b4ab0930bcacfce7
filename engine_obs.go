package gedlib

import (
	"time"

	"gedlib/internal/obs"
)

// engineMetrics caches the engine's metric handles so the hot paths
// never touch the registry's mutex. Built once at New from the
// observer's registry; with no observer every handle is nil and each
// instrumentation site costs one nil check.
type engineMetrics struct {
	validate    *obs.Histogram
	validateInc *obs.Histogram
	apply       *obs.Histogram
	chase       *obs.Histogram

	snapHit     *obs.Counter
	snapAdvance *obs.Counter
	snapFreeze  *obs.Counter

	storeRecheck *obs.Counter
	storeDrop    *obs.Counter
	storeFresh   *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	return &engineMetrics{
		validate:    reg.Histogram("ged_engine_validate_seconds", "full Validate duration"),
		validateInc: reg.Histogram("ged_engine_validate_incremental_seconds", "ValidateIncremental duration"),
		apply:       reg.Histogram("ged_engine_apply_seconds", "Apply and Violations duration, catch-up and seeding included"),
		chase:       reg.Histogram("ged_engine_chase_seconds", "Engine.Chase duration"),

		snapHit:     reg.Counter("ged_engine_snapshot_cache_total", "session snapshot outcomes", "outcome", "hit"),
		snapAdvance: reg.Counter("ged_engine_snapshot_cache_total", "session snapshot outcomes", "outcome", "advance"),
		snapFreeze:  reg.Counter("ged_engine_snapshot_cache_total", "session snapshot outcomes", "outcome", "freeze"),

		storeRecheck: reg.Counter("ged_engine_store_rechecks_total", "maintained violations re-checked after a delta"),
		storeDrop:    reg.Counter("ged_engine_store_drops_total", "maintained violations dropped as repaired"),
		storeFresh:   reg.Counter("ged_engine_store_fresh_total", "fresh violations admitted into maintained stores"),
	}
}

// observe times one engine operation into h; used as
// defer e.em.observe(h, time.Now()).
func (em *engineMetrics) observe(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start))
}
