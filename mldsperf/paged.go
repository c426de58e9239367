package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"mlds/internal/abdm"
	"mlds/internal/cdc"
	"mlds/internal/core"
	"mlds/internal/kc"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/pager"
)

// paged-durable: SQL only, over two demand-paged partitions with buffer
// pools much smaller than their heaps, a shared journal, a watched tail of
// writes, then fleet checkpoints every ckptEvery writes and crash
// recoveries. See README.md.
var (
	pagedShape = shape{emp: 20_000, owners: clients, perScan: 40}
	pagedMixW  = mix{weight: [nKinds]int{kSQLRead: 450, kSQLScan: 50, kSQLWrite: 500}}
)

const (
	pagedBackends = 2
	poolPages     = 64   // per partition; its heap holds ~8x as many pages
	ckptEvery     = 4000 // acknowledged writes between fleet checkpoints
	tailWrites    = 2000 // writes after the last checkpoint, replayed by recovery
	watchGroups   = 10   // the watch follows rows with grp < watchGroups: 4% of emp
)

// fleet is a paged shop database: one System, its partitions' page files
// and the shared journal.
type fleet struct {
	dir    string
	sys    *core.System
	db     *core.Database
	stores []*kdb.Store
	jf     *kc.JournalFile
}

func fleetPaths(dir string) ([]string, string) {
	paths := make([]string, pagedBackends)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part%d.pgf", i))
	}
	return paths, filepath.Join(dir, "journal.gob")
}

func pagedConfig(tracing bool, open func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error)) core.Config {
	cfg := core.Config{Kernel: mbds.DefaultConfig(pagedBackends), Tracing: tracing}
	cfg.Kernel.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		return open(pos, d, append(opts, kdb.WithPoolPages(poolPages)))
	}
	return cfg
}

// createFleet builds and loads a fresh fleet in dir: journal attached
// first, so the load is journalled, then one fleet checkpoint.
func createFleet(dir string, sh shape, seed int64, tracing bool) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths, jpath := fleetPaths(dir)
	sys := core.NewSystem(pagedConfig(tracing, func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		return kdb.CreateBacked(paths[pos], d, opts...)
	}))
	f := &fleet{dir: dir, sys: sys}
	var err error
	if f.db, err = sys.CreateRelational("shop", empDDL); err != nil {
		sys.Close()
		return nil, err
	}
	for i := 0; i < pagedBackends; i++ {
		f.stores = append(f.stores, f.db.Kernel.Store(i))
	}
	if f.jf, err = kc.OpenJournalFile(jpath); err == nil {
		err = f.db.Ctrl.AttachJournalFile(f.jf)
	}
	if err == nil {
		err = loadEmp(f.db, sh, seed)
	}
	if err == nil {
		_, err = f.db.Ctrl.CheckpointFleet(f.stores)
	}
	if err != nil {
		f.crash()
		return nil, err
	}
	return f, nil
}

// crash abandons the fleet the way a killed process would: page files
// keep their last committed generations, the journal its flushed entries.
func (f *fleet) crash() {
	f.sys.Close()
	for _, st := range f.stores {
		st.CloseBacking()
	}
	if f.jf != nil {
		f.jf.Close()
	}
}

// diskBytes is the size of the page files plus the journal.
func (f *fleet) diskBytes() int64 {
	paths, jpath := fleetPaths(f.dir)
	var n int64
	for _, p := range append(paths, jpath) {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func (f *fleet) journalBytes() int64 {
	_, jpath := fleetPaths(f.dir)
	fi, err := os.Stat(jpath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// recovered is one crash recovery, timed.
type recovered struct {
	total, mount, replay float64 // seconds: mount to first answer, mounting, journal replay
	entries              int
}

// recoverFleet mounts dir's page files at the fleet cut, replays the
// journal tail, and times until a session answers. check, if set, then
// reads every key through that session.
func recoverFleet(dir string, check func(session)) (recovered, error) {
	var r recovered
	paths, jpath := fleetPaths(dir)
	runtime.GC()
	t0 := time.Now()
	cut, err := kc.FleetCut(paths)
	if err != nil {
		return r, err
	}
	metas := make([]pager.Meta, pagedBackends)
	sys := core.NewSystem(pagedConfig(false, func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		st, m, err := kdb.OpenBackedAt(paths[pos], d, cut, opts...)
		metas[pos] = m
		return st, err
	}))
	defer sys.Close()
	db, err := sys.CreateRelational("shop", empDDL)
	if err != nil {
		return r, err
	}
	defer func() {
		for i := 0; i < pagedBackends; i++ {
			db.Kernel.Store(i).CloseBacking()
		}
	}()
	var maxID uint64
	for _, m := range metas {
		maxID = max(maxID, m.NextID)
	}
	db.Kernel.SeedIDs(maxID)
	t1 := time.Now()
	jf, err := os.Open(jpath)
	if err != nil {
		return r, err
	}
	r.entries, err = db.Ctrl.RecoverFleet(jf, cut, metas...)
	jf.Close()
	if err != nil {
		return r, err
	}
	t2 := time.Now()
	sess, err := sys.Open("shop", "sql")
	if err != nil {
		return r, err
	}
	defer sess.Close()
	if _, err := sess.Execute("SELECT ename, pay FROM emp WHERE eid = 0"); err != nil {
		return r, err
	}
	t3 := time.Now()
	r.total, r.mount, r.replay = t3.Sub(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	if check != nil {
		check(sess)
	}
	return r, nil
}

// pagedRun is everything one measured pass over a fleet produced.
type pagedRun struct {
	phase
	ckpts        []span // fleet checkpoints taken during the measured pass
	rotations    int
	lag          []float64 // µs from UPDATE send to watcher receipt
	events       int
	heap         float64
	resident     int
	heapPages    []int // per partition
	watch        cdc.WatcherStats
	watchMissing int // acknowledged updates the watch never delivered
	diskBytes    int64
	tailJBytes   float64 // journal bytes per tail write
	recs         []recovered
	recFailed    int64
	recStmts     int64
}

// sentWrite is one watched update on its way to the watcher.
type sentWrite struct {
	pay int64
	at  time.Time
}

// runPaged drives one fleet. First a fleet checkpoint and the watched
// tail of tailWrites writes; a copy of the fleet's files then is the crash
// image every timed recovery starts from, so each replays the same tail.
// Then closed-loop traffic with count-triggered fleet checkpoints. With
// gapSetup set, the traffic runs in segments, and each gap times
// gapSetup and restartsPerGap recoveries of the image; without, one
// recovery of the image follows the traffic. Last, the fleet crashes and is
// recovered once more, and every key is checked.
func runPaged(f *fleet, o opts, sh shape, dur time.Duration, traced bool, gapSetup func() error) (*pagedRun, error) {
	run := &pagedRun{}
	model := newEmpModel(sh, o.seed)

	if _, err := f.db.Ctrl.CheckpointFleet(f.stores); err != nil {
		return nil, err
	}
	j0 := f.journalBytes()
	if err := watchedTail(f, o, sh, model, run); err != nil {
		return nil, err
	}
	run.tailJBytes = float64(f.journalBytes()-j0) / tailWrites
	run.diskBytes = f.diskBytes()
	image := f.dir + "-image"
	if err := copyDir(f.dir, image); err != nil {
		return nil, err
	}
	imageModel := &empModel{pay: slices.Clone(model.pay)}
	recoverImage := func() error {
		dir := fmt.Sprintf("%s-recover%d", f.dir, len(run.recs))
		if err := copyDir(image, dir); err != nil {
			return err
		}
		var check func(session)
		if len(run.recs) == 0 {
			check = func(s session) { run.checkKeys(s, sh, imageModel) }
		}
		r, err := recoverFleet(dir, check)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		run.recs = append(run.recs, r)
		return nil
	}

	// The checkpointer: one fleet checkpoint per ckptEvery acknowledged
	// writes. A gap holds ckMu, so no checkpoint overlaps what it times.
	var (
		writes  int64
		wmu     sync.Mutex
		ckMu    sync.Mutex
		trigger = make(chan struct{}, 1)
		cwg     sync.WaitGroup
		ckErr   error
	)
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for range trigger {
			ckMu.Lock()
			t0 := time.Now()
			info, err := f.db.Ctrl.CheckpointFleet(f.stores)
			if err != nil && ckErr == nil {
				ckErr = err
			}
			run.ckpts = append(run.ckpts, span{t0, time.Now()})
			if info.Rotated {
				run.rotations++
			}
			ckMu.Unlock()
		}
	}()
	hook := func(c *closedClient) {
		c.onAck = func(op) {
			wmu.Lock()
			writes++
			due := writes%ckptEvery == 0
			wmu.Unlock()
			if due {
				select {
				case trigger <- struct{}{}:
				default:
				}
			}
		}
	}
	var gap func() error
	if gapSetup != nil {
		gap = func() error {
			ckMu.Lock()
			defer ckMu.Unlock()
			if err := gapSetup(); err != nil {
				return err
			}
			for i := 0; i < restartsPerGap; i++ {
				if err := recoverImage(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	p, err := measureClosed(embedded(f.sys), o, pagedMixW, sh, model, dur, traced, hook, gap)
	close(trigger)
	cwg.Wait()
	if err != nil {
		return nil, err
	}
	if ckErr != nil {
		return nil, fmt.Errorf("fleet checkpoint: %w", ckErr)
	}
	run.phase = *p
	if gap == nil {
		if err := recoverImage(); err != nil {
			return nil, err
		}
	}

	run.heap = heapMiB()
	for _, st := range f.stores {
		run.resident += st.ResidentRecords()
		_, pages, _ := st.BackingStats()
		run.heapPages = append(run.heapPages, pages)
	}
	crashed := f.dir
	f.crash()
	if _, err := recoverFleet(crashed, func(s session) { run.checkKeys(s, sh, model) }); err != nil {
		return nil, fmt.Errorf("final recovery: %w", err)
	}
	return run, nil
}

// checkKeys reads every key through s and counts what is wrong against
// model.
func (r *pagedRun) checkKeys(s session, sh shape, model *empModel) {
	rec := &recovery{}
	checkAllKeys(s, sh, model, rec)
	r.recFailed += rec.failed
	r.recStmts += rec.stmts
}

// watchedTail opens a live Session.Watch on the rows with grp <
// watchGroups (4 % of emp), then has each closed-loop client update
// watched rows of its own stripe until tailWrites writes are acknowledged.
// Every update must reach the watcher; the time from send to receipt is
// the change-capture lag.
func watchedTail(f *fleet, o opts, sh shape, model *empModel, run *pagedRun) error {
	ws, err := f.sys.Open("shop", "sql")
	if err != nil {
		return err
	}
	defer ws.Close()
	w, err := ws.Watch(fmt.Sprintf("SELECT eid, pay FROM emp WHERE grp < %d", watchGroups))
	if err != nil {
		return err
	}
	var (
		mu      sync.Mutex
		sent    = map[int64][]sentWrite{} // by eid, oldest first
		got     = make(chan struct{}, 1)
		missing int
		wg      sync.WaitGroup
	)
	ready := make(chan struct{})
	var readyOnce sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range w.C {
			switch c.Op {
			case cdc.OpReady: // again after every resync
				readyOnce.Do(func() { close(ready) })
			case cdc.OpUpdate, cdc.OpLoad:
				eid, _ := c.Rec.Get("eid")
				pay, _ := c.Rec.Get("pay")
				now := time.Now()
				mu.Lock()
				// A resync reloads the row's latest value instead of
				// sending each update: that value supersedes every earlier
				// write of the row.
				ws := sent[eid.AsInt()]
				for i, x := range ws {
					if x.pay == pay.AsInt() {
						run.lag = append(run.lag, us(now.Sub(x.at)))
						if ws = ws[i+1:]; len(ws) == 0 {
							delete(sent, eid.AsInt())
						} else {
							sent[eid.AsInt()] = ws
						}
						break
					}
				}
				if len(sent) == 0 {
					select {
					case got <- struct{}{}:
					default:
					}
				}
				if c.Op == cdc.OpUpdate {
					run.events++
				}
				mu.Unlock()
			}
		}
	}()
	defer func() {
		w.Close()
		wg.Wait()
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("watch never became ready: %v", w.Err())
	}

	cs, closeAll, err := openClients(f.sys, o.seed, pagedMixW, sh, false)
	if err != nil {
		return err
	}
	defer closeAll()
	var cwg sync.WaitGroup
	for _, c := range cs {
		cwg.Add(1)
		go func(c *closedClient) {
			defer cwg.Done()
			g := newGen(o.seed, 1000+c.id, pagedMixW, sh)
			for i := 0; i < tailWrites/len(cs); i++ {
				op := g.watchedWrite(c.id, watchGroups)
				mu.Lock()
				sent[op.key] = append(sent[op.key], sentWrite{op.val, time.Now()})
				mu.Unlock()
				if _, ok := runOp(c.sess["sql"][0], op, want{}, sh, &c.t, -1); ok {
					model.acknowledge(op)
				}
			}
		}(c)
	}
	cwg.Wait()
	for _, c := range cs {
		run.t.merge(&c.t)
	}
	// Wait until the watcher has seen every acknowledged update.
	deadline := time.After(30 * time.Second)
	for {
		mu.Lock()
		missing = len(sent)
		mu.Unlock()
		if missing == 0 {
			break
		}
		select {
		case <-got:
		case <-deadline:
			run.watchMissing = missing
			run.watch = w.Stats()
			return nil
		}
	}
	run.watch = w.Stats()
	return nil
}

// failures counts failed statements, oracle mismatches, keys wrong after
// recovery, and watched updates never delivered.
func (r *pagedRun) failures() int64 {
	return r.t.failed + r.t.mismatches + r.recFailed + int64(r.watchMissing)
}

func (r *pagedRun) correct() bool {
	return r.t.mismatches == 0 && r.recFailed == 0 && r.watchMissing == 0
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err == nil {
			_, err = io.Copy(dst, src)
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// stallP99 is the p99 latency of the ops whose interval overlaps a
// checkpoint's.
func stallP99(ops, ckpts []span) float64 {
	var lat []float64
	for _, op := range ops {
		for _, c := range ckpts {
			if op.start.Before(c.end) && op.end.After(c.start) {
				lat = append(lat, ms(op.end.Sub(op.start)))
				break
			}
		}
	}
	return summarize(lat, 0.99).Tail
}

func pagedDurable(o opts) (*result, error) {
	sh := pagedShape
	res := &result{Metrics: metrics{}}
	dur := measuredSeconds(o)
	if o.trace {
		zeroLayers(res.Metrics)
		ref, err := createFleet(filepath.Join(o.work, "ref"), sh, o.seed, false)
		if err != nil {
			return nil, err
		}
		rr, err := runPaged(ref, o, sh, dur/tracedRef, false, nil)
		if err != nil {
			return nil, err
		}
		f, err := createFleet(filepath.Join(o.work, "traced"), sh, o.seed, true)
		if err != nil {
			return nil, err
		}
		r, err := runPaged(f, o, sh, dur, true, nil)
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		r.t.acc.layerMetrics(m)
		counterMetrics(m, r.before, r.after, &r.t)
		overheadMetrics(m, &r.t)
		m.put("obs.tracing_overhead", tracingOverhead(&rr.t, &r.t), "ratio")
		m.put("pager.resident_records", float64(r.resident), "count")
		var ck []float64
		for _, c := range r.ckpts {
			ck = append(ck, ms(c.end.Sub(c.start)))
		}
		m.put("kc.checkpoint_ms_p50", summarize(ck, 0.5).P50, "ms")
		m.put("kc.checkpoint_stall_p99_ms", stallP99(r.t.ops, r.ckpts), "ms")
		m.put("kc.journal_bytes_per_write", r.tailJBytes, "B")
		m.put("kc.journal_rotations", float64(r.rotations), "count")
		m.put("kc.mount_s", r.recs[0].mount, "s")
		m.put("kc.replay_s", r.recs[0].replay, "s")
		m.put("kc.replayed_entries", float64(r.recs[0].entries), "count")
		lag := summarize(r.lag, 0.99)
		m.put("cdc.lag_us_p50", lag.P50, "us")
		m.put("cdc.lag_us_p99", lag.Tail, "us")
		m.put("cdc.events", float64(r.events), "count")
		m.put("cdc.resyncs", float64(r.watch.Resyncs), "count")
		res.Attempted = rr.t.stmts + r.t.stmts + r.recStmts
		res.Failed = rr.failures() + r.failures()
		res.Correct = rr.correct() && r.correct()
		printEnv(o, map[string]any{"traced_statements": r.t.stmts, "reference_statements": rr.t.stmts,
			"checkpoints": len(r.ckpts), "watch": r.watch, "cdc_lag_samples": lag.N, "cdc_lag_tail_percentile": lag.TailQ * 100})
		return res, nil
	}

	// The first set-up builds the measured fleet; one more per gap.
	var setup []float64
	newFleet := func() (*fleet, error) {
		var f *fleet
		d, err := timeIt(func() (err error) {
			f, err = createFleet(filepath.Join(o.work, fmt.Sprintf("fleet%d", len(setup))), sh, o.seed, false)
			return err
		})
		if err == nil {
			setup = append(setup, d)
		}
		return f, err
	}
	f, err := newFleet()
	if err != nil {
		return nil, err
	}
	r, err := runPaged(f, o, sh, dur, false, func() error {
		g, err := newFleet()
		if err != nil {
			return err
		}
		g.crash()
		return os.RemoveAll(g.dir)
	})
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	samples := latencyMetrics(m, &r.t, r.dur)
	m.put("setup_s", median(setup), "s")
	m.put("heap_mb", r.heap, "MiB")
	var rec []float64
	for _, x := range r.recs {
		rec = append(rec, x.total)
	}
	m.put("recover_s", quietLow(rec), "s")
	samples["setup_s_each"] = setup
	samples["recover_s_each"] = rec
	m.put("bytes_per_user_byte", float64(r.diskBytes)/float64(sh.empUserBytes()), "ratio")
	samples["checkpoints"] = len(r.ckpts)
	samples["heap_pages"] = r.heapPages
	samples["watch"] = r.watch
	samples["pool_pages"] = poolPages
	samples["replayed_entries"] = r.recs[0].entries
	res.Attempted = r.t.stmts + r.recStmts
	res.Failed = r.failures()
	res.Correct = r.correct()
	printEnv(o, samples)
	return res, nil
}
