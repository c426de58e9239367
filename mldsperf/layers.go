package main

import (
	"strconv"
	"strings"

	"mlds/internal/core"
	"mlds/internal/obs"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not exercise reads 0 (see
// README.md for which workload each metric belongs to).
var layerUnits = [][2]string{
	{"parse.self_us_p50", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"kms.self_us_p50", "us"},
	{"kms.kernel_reqs_per_stmt", "count"},
	{"core.self_us_p50", "us"},
	{"txn.lock_wait_us_mean", "us"},
	{"txn.aborts_per_kstmt", "count"},
	{"kc.self_us_p50", "us"},
	{"mbds.backends_per_req", "count"},
	{"mbds.straggler_ratio", "ratio"},
	{"kdb.backend_us_p50", "us"},
	{"kdb.examined_per_returned", "ratio"},
	{"kdb.cache_hit_ratio", "ratio"},
	{"pager.hit_ratio", "ratio"},
	{"pager.misses_per_stmt", "count"},
	{"pager.evictions_per_stmt", "count"},
	{"pager.resident_records", "count"},
	{"kc.checkpoint_ms_p50", "ms"},
	{"kc.checkpoint_stall_p99_ms", "ms"},
	{"kc.journal_bytes_per_write", "B"},
	{"kc.journal_rotations", "count"},
	{"kc.mount_s", "s"},
	{"kc.replay_s", "s"},
	{"kc.replayed_entries", "count"},
	{"kfs.self_us_p50", "us"},
	{"wire.overhead_us_p50", "us"},
	{"wire.overhead_us_p99", "us"},
	{"server.refused", "count"},
	{"server.sessions_after_close", "count"},
	{"cdc.lag_us_p50", "us"},
	{"cdc.lag_us_p99", "us"},
	{"cdc.events", "count"},
	{"cdc.resyncs", "count"},
	{"obs.tracing_overhead", "ratio"},
}

func zeroLayers(m metrics) {
	for _, l := range layerUnits {
		m.put(l[0], 0, l[1])
	}
}

// counters is a snapshot of the public statistics the per-layer metrics
// are deltas of.
type counters struct {
	planHits, planMisses     float64
	cacheHits, cacheMisses   uint64
	examined                 uint64
	lockWaitSum, lockWaitCnt float64
	aborts                   uint64
	poolHits, poolMisses     uint64
	evictions                uint64
	refused                  float64
}

func readCounters(sys *core.System) counters {
	reg := sys.Metrics()
	c := counters{
		planHits:    famSum(reg, "mlds_plan_cache_hits_total"),
		planMisses:  famSum(reg, "mlds_plan_cache_misses_total"),
		lockWaitSum: famSum(reg, "mlds_txn_lock_wait_seconds_sum"),
		lockWaitCnt: famSum(reg, "mlds_txn_lock_wait_seconds_count"),
		refused:     famSum(reg, "mlds_server_refused_total"),
	}
	for _, info := range sys.Databases() {
		db, ok := sys.Database(info.Name)
		if !ok {
			continue
		}
		st := db.Kernel.StoreStats()
		c.cacheHits += st.CacheHits
		c.cacheMisses += st.CacheMisses
		c.examined += st.RecordsExam
		c.aborts += db.Ctrl.Txns().Stats().Aborts
		for pos := 0; pos < db.Kernel.Backends(); pos++ {
			if ps, _, backed := db.Kernel.Store(pos).BackingStats(); backed {
				c.poolHits += ps.Hits
				c.poolMisses += ps.Misses
				c.evictions += ps.Evictions
			}
		}
	}
	return c
}

// famSum sums every series of one metric family in the registry's
// Prometheus exposition (for a histogram, name its _sum or _count).
func famSum(reg *obs.Registry, name string) float64 {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return 0
	}
	var sum float64
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// counterMetrics reports the per-layer metrics that are deltas of public
// counters between two snapshots, over the phase's tally.
func counterMetrics(m metrics, a, b counters, t *tally) {
	stmts := float64(t.stmts)
	m.put("plancache.hit_ratio", ratio(b.planHits-a.planHits, b.planHits-a.planHits+b.planMisses-a.planMisses), "ratio")
	m.put("kdb.cache_hit_ratio", ratio(float64(b.cacheHits-a.cacheHits), float64(b.cacheHits-a.cacheHits+b.cacheMisses-a.cacheMisses)), "ratio")
	m.put("kdb.examined_per_returned", ratio(float64(b.examined-a.examined), float64(t.rows)), "ratio")
	m.put("txn.lock_wait_us_mean", 1e6*ratio(b.lockWaitSum-a.lockWaitSum, b.lockWaitCnt-a.lockWaitCnt), "us")
	m.put("txn.aborts_per_kstmt", 1000*ratio(float64(b.aborts-a.aborts), stmts), "count")
	m.put("pager.hit_ratio", ratio(float64(b.poolHits-a.poolHits), float64(b.poolHits-a.poolHits+b.poolMisses-a.poolMisses)), "ratio")
	m.put("pager.misses_per_stmt", ratio(float64(b.poolMisses-a.poolMisses), stmts), "count")
	m.put("pager.evictions_per_stmt", ratio(float64(b.evictions-a.evictions), stmts), "count")
	m.put("server.refused", b.refused-a.refused, "count")
}
