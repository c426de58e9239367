package main

import (
	"bytes"
	"fmt"
	"time"

	"mlds/internal/abdm"
	"mlds/internal/core"
	"mlds/internal/mbds"
)

// local-mix: the embedded, in-memory system under closed-loop traffic from
// all five languages. See README.md.
var (
	localShape = shape{univ: univConfig, depts: 20, courses: 10, emp: 20_000, owners: clients, perScan: 40}
	localMixW  = mix{zipf: true, weight: [nKinds]int{
		kSQLRead: 350, kSQLScan: 50, kSQLWrite: 200,
		kDaplex: 120, kDML: 100, kDLI: 100, kABDL: 80,
	}}
)

const (
	clients        = 1           // closed-loop client goroutines
	warmup         = time.Second // traffic before the measured window
	restartsPerGap = 3           // restarts timed in each gap; recover_s is their lower quartile
	tracedRef      = 3           // the untraced reference pass of a traced run is 1/tracedRef as long
)

// memConfig is core.DefaultConfig (4 backends) or an n-backend kernel.
func memConfig(backends int) core.Config {
	cfg := core.DefaultConfig()
	if backends > 0 {
		cfg.Kernel = mbds.DefaultConfig(backends)
	}
	return cfg
}

func buildMem(backends int, tracing bool, sh shape, seed int64) (*core.System, error) {
	cfg := memConfig(backends)
	cfg.Tracing = tracing
	sys := core.NewSystem(cfg)
	if err := loadAll(sys, sh, seed); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// target is a system under test and the way closed-loop clients reach it.
type target struct {
	sys *core.System
	// clients opens the closed-loop clients' sessions; the returned func
	// releases what clients opened.
	clients func(seed int64, m mix, sh shape, traced bool) ([]*closedClient, func(), error)
	// closeSessions, when set, closes the target's long-lived sessions
	// and returns how many the server still counts right after.
	closeSessions func() int
	close         func()
}

// embedded is a target reached through in-process sessions.
func embedded(sys *core.System) *target {
	return &target{
		sys: sys,
		clients: func(seed int64, m mix, sh shape, traced bool) ([]*closedClient, func(), error) {
			return openClients(sys, seed, m, sh, traced)
		},
		close: sys.Close,
	}
}

// openClients opens one session per language for each closed-loop client.
func openClients(sys *core.System, seed int64, m mix, sh shape, traced bool) ([]*closedClient, func(), error) {
	var cs []*closedClient
	var all []core.Session
	closeAll := func() {
		for _, s := range all {
			s.Close()
		}
	}
	for id := 0; id < clients; id++ {
		c := newClient(id, seed, m, sh, traced)
		for k := kind(0); k < nKinds; k++ {
			if len(c.sess[kindLang[k]]) > 0 || m.weight[k] == 0 {
				continue
			}
			s, err := sys.Open(kindDB[k], kindLang[k])
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			all = append(all, s)
			c.sess[kindLang[k]] = []session{s}
		}
		cs = append(cs, c)
	}
	return cs, closeAll, nil
}

func newClient(id int, seed int64, m mix, sh shape, traced bool) *closedClient {
	c := &closedClient{id: id, sess: map[string][]session{}, g: newGen(seed, id, m, sh)}
	if traced {
		c.t.acc = newTraceAcc()
	}
	return c
}

// phase is one measured pass.
type phase struct {
	t      tally
	dur    time.Duration
	before counters
	after  counters
}

// measureClosed runs the target's closed-loop clients for one warm-up and
// one measured phase of length dur. hook, if set, adjusts each client
// before the run. gap, if set, cuts the phase into segments and runs
// between every two of them, the clients paused.
func measureClosed(tg *target, o opts, m mix, sh shape, model *empModel, dur time.Duration, traced bool,
	hook func(c *closedClient), gap func() error) (*phase, error) {
	cs, closeAll, err := tg.clients(o.seed, m, sh, traced)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	if hook != nil {
		for _, c := range cs {
			hook(c)
		}
	}
	p := &phase{dur: dur, before: readCounters(tg.sys)}
	nseg := 1
	if gap != nil {
		nseg = segments
	}
	for s, warm := 0, warmup; s < nseg; s, warm = s+1, rewarm {
		if s > 0 {
			if err := gap(); err != nil {
				return nil, err
			}
		}
		runClosed(cs, sh, model, warm, dur/time.Duration(nseg), s*windows/nseg, windows/nseg, traced)
	}
	p.after = readCounters(tg.sys)
	for _, c := range cs {
		p.t.merge(&c.t)
	}
	p.t.report(o.workload)
	return p, nil
}

func measuredSeconds(o opts) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func localMix(o opts) (*result, error) {
	return closedWorkload(o, func(tracing bool) (*target, error) {
		sys, err := buildMem(0, tracing, localShape, o.seed)
		if err != nil {
			return nil, err
		}
		return embedded(sys), nil
	}, localMixW, localShape, 0, nil)
}

// closedWorkload runs an in-memory closed-loop workload. Untraced: set up,
// measure in segments, each gap timing one more set-up and restartsPerGap
// restarts from images of the live system, then restart once more and
// check every key. Traced: a short untraced reference pass for the tracing
// overhead, then the traced pass the per-layer metrics come from.
func closedWorkload(o opts, build func(tracing bool) (*target, error), m mix, sh shape, backends int,
	serve func(*core.System) (session, func(), error)) (*result, error) {
	res := &result{Metrics: metrics{}}
	if o.trace {
		zeroLayers(res.Metrics)
		ref, err := build(false)
		if err != nil {
			return nil, err
		}
		rp, err := measureClosed(ref, o, m, sh, newEmpModel(sh, o.seed), measuredSeconds(o)/tracedRef, false, nil, nil)
		ref.close()
		if err != nil {
			return nil, err
		}
		tg, err := build(true)
		if err != nil {
			return nil, err
		}
		defer tg.close()
		p, err := measureClosed(tg, o, m, sh, newEmpModel(sh, o.seed), measuredSeconds(o), true, nil, nil)
		if err != nil {
			return nil, err
		}
		p.t.acc.layerMetrics(res.Metrics)
		counterMetrics(res.Metrics, p.before, p.after, &p.t)
		overheadMetrics(res.Metrics, &p.t)
		res.Metrics.put("obs.tracing_overhead", tracingOverhead(&rp.t, &p.t), "ratio")
		if tg.closeSessions != nil {
			res.Metrics.put("server.sessions_after_close", float64(tg.closeSessions()), "count")
		}
		res.Attempted = rp.t.stmts + p.t.stmts
		res.Failed = rp.t.failed + rp.t.mismatches + p.t.failed + p.t.mismatches
		res.Correct = rp.t.mismatches == 0 && p.t.mismatches == 0
		printEnv(o, map[string]any{"traced_statements": p.t.stmts, "reference_statements": rp.t.stmts})
		return res, nil
	}

	// The first set-up builds the target; one more per gap.
	var tg *target
	d, err := timeIt(func() (err error) { tg, err = build(false); return err })
	if err != nil {
		return nil, err
	}
	setup := []float64{d}
	var restarts []float64
	gap := func() error {
		var t *target
		d, err := timeIt(func() (err error) { t, err = build(false); return err })
		if err != nil {
			return err
		}
		t.close()
		setup = append(setup, d)
		images, err := saveImages(tg.sys)
		if err != nil {
			return err
		}
		for i := 0; i < restartsPerGap; i++ {
			d, err := restore(images, backends, serve, nil)
			if err != nil {
				return err
			}
			restarts = append(restarts, d)
		}
		return nil
	}
	model := newEmpModel(sh, o.seed)
	p, err := measureClosed(tg, o, m, sh, model, measuredSeconds(o), false, nil, gap)
	if err != nil {
		tg.close()
		return nil, err
	}
	samples := latencyMetrics(res.Metrics, &p.t, p.dur)
	res.Metrics.put("setup_s", median(setup), "s")
	res.Metrics.put("heap_mb", heapMiB(), "MiB")
	res.Metrics.put("recover_s", quietLow(restarts), "s")
	samples["setup_s_each"] = setup
	samples["recover_s_each"] = restarts
	if tg.closeSessions != nil {
		samples["server_sessions_after_close"] = tg.closeSessions()
	}
	rec, err := finalRestart(tg, sh, model, backends, serve)
	if err != nil {
		return nil, err
	}
	res.Metrics.put("bytes_per_user_byte", rec.bytesPerUser, "ratio")
	samples["final_restart_s"] = rec.seconds
	res.Attempted = p.t.stmts + rec.stmts
	res.Failed = p.t.failed + p.t.mismatches + rec.failed
	res.Correct = p.t.mismatches == 0 && rec.failed == 0
	printEnv(o, samples)
	return res, nil
}

// tracingOverhead is the traced over the untraced service rate, each the
// inverse of the mean op latency: for a fixed number of closed-loop
// clients that is the traced over the untraced throughput.
func tracingOverhead(untraced, traced *tally) float64 {
	mean := func(t *tally) float64 {
		var all []float64
		for _, l := range t.lat {
			all = append(all, l...)
		}
		return summarize(all, 0.5).Mean
	}
	return ratio(mean(untraced), mean(traced))
}

// overheadMetrics reports the caller-measured latency minus the system's
// own Outcome.Wall: the wire round trip for remote sessions, only the call
// itself for embedded ones.
func overheadMetrics(m metrics, t *tally) {
	s := summarize(t.overhead, 0.99)
	m.put("wire.overhead_us_p50", s.P50, "us")
	m.put("wire.overhead_us_p99", s.Tail, "us")
}

// recovery is the outcome of the final restart of a workload's system.
type recovery struct {
	seconds      float64 // restart-to-answer time
	bytesPerUser float64
	stmts        int64 // statements the post-recovery check ran
	failed       int64 // keys the check found wrong, or check errors
}

// saveImages saves every database of sys with Database.Save: the only way
// an in-memory system can be restarted.
func saveImages(sys *core.System) ([][]byte, error) {
	var images [][]byte
	for _, info := range sys.Databases() {
		db, _ := sys.Database(info.Name)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return nil, err
		}
		images = append(images, buf.Bytes())
	}
	return images, nil
}

// restore restarts a system from images: it restores them into a fresh
// System with System.Restore and times until a session answers. serve,
// when set, puts the restored system behind the serving tier and returns
// the session to answer through. check, if set, then runs on that session.
func restore(images [][]byte, backends int, serve func(*core.System) (session, func(), error),
	check func(session)) (float64, error) {
	fresh := core.NewSystem(memConfig(backends))
	defer fresh.Close()
	var sess session
	closeSess := func() {}
	defer func() { closeSess() }()
	d, err := timeIt(func() error {
		for _, img := range images {
			if _, err := fresh.Restore(bytes.NewReader(img)); err != nil {
				return err
			}
		}
		if serve != nil {
			var err error
			if sess, closeSess, err = serve(fresh); err != nil {
				return err
			}
		} else {
			s, err := fresh.Open("shop", "sql")
			if err != nil {
				return err
			}
			sess, closeSess = s, func() { s.Close() }
		}
		_, err := sess.Execute("SELECT ename, pay FROM emp WHERE eid = 0")
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	if check != nil {
		check(sess)
	}
	return d, nil
}

// finalRestart saves tg's databases, closes tg, restarts from the images
// and checks every key against the model.
func finalRestart(tg *target, sh shape, model *empModel, backends int,
	serve func(*core.System) (session, func(), error)) (*recovery, error) {
	images, err := saveImages(tg.sys)
	var ub int64
	if err == nil {
		ub, err = userBytes(tg.sys)
	}
	tg.close()
	if err != nil {
		return nil, err
	}
	var total int
	for _, img := range images {
		total += len(img)
	}
	rec := &recovery{bytesPerUser: ratio(float64(total), float64(ub))}
	rec.seconds, err = restore(images, backends, serve, func(s session) { checkAllKeys(s, sh, model, rec) })
	return rec, err
}

// checkAllKeys reads every emp row through sess and compares it with the
// model's last acknowledged value.
func checkAllKeys(sess session, sh shape, model *empModel, rec *recovery) {
	rec.stmts++
	out, err := sess.Execute("SELECT eid, pay FROM emp")
	if err != nil {
		rec.failed++
		return
	}
	got := map[string]string{}
	for _, r := range parseTable(out.Rendered) {
		got[r["eid"]] = r["pay"]
	}
	if len(got) != sh.emp {
		rec.failed++
	}
	for eid, pay := range model.pay {
		if got[lit(abdm.Int(int64(eid)))] != lit(abdm.Int(pay)) {
			rec.failed++
		}
	}
}
