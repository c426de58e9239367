package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mlds/internal/core"
)

// session is what the workloads need of a core.Session or client.Session.
type session interface {
	Execute(text string) (*core.Outcome, error)
}

// span is one op's interval, kept where a metric needs overlap with other
// intervals (checkpoint stalls).
type span struct{ start, end time.Time }

// tally is what one client saw: counts over its whole run, latencies over
// the measured phase.
type tally struct {
	stmts      int64                        // statements attempted, warm-up included
	measured   int64                        // statements of ops started in the measured phase
	perWin     [windows]int64               // the same, by the window the op started in
	failed     int64                        // statements that returned an error
	mismatches int64                        // ops whose answer the oracle rejected
	rows       int64                        // rows the ops returned or changed, warm-up included
	lat        [nClasses][]float64          // ms per op
	win        [nClasses][windows][]float64 // the same, split by the window the op started in
	overhead   []float64                    // µs: caller-measured latency minus Outcome.Wall, per statement
	ops        []span
	acc        *traceAcc
	errs       []string
}

func (t *tally) note(format string, args ...any) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.stmts += o.stmts
	t.measured += o.measured
	for w := range t.perWin {
		t.perWin[w] += o.perWin[w]
	}
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.rows += o.rows
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
		for w := range t.win[c] {
			t.win[c][w] = append(t.win[c][w], o.win[c][w]...)
		}
	}
	t.overhead = append(t.overhead, o.overhead...)
	t.ops = append(t.ops, o.ops...)
	if o.acc != nil {
		if t.acc == nil {
			t.acc = newTraceAcc()
		}
		t.acc.merge(o.acc)
	}
	for _, e := range o.errs {
		t.note("%s", e)
	}
}

// windows is how many equal parts the measured phase is cut into. A
// throughput is the upper quartile of the windows' rates, a p50 the lower
// quartile of the windows' p50s (quietHigh, quietLow): bursts of noise from
// outside the benchmark that slow a few parts do not move the figure. The
// tail, a p90, is taken over the whole phase. README.md explains why it is
// not a p99, which goes on the environment line.
const windows = 16

// segments is how many parts an untraced measured phase is run in, each
// of windows/segments windows. Between two segments the clients pause for
// a gap in which set-ups and restarts are timed, so those samples are
// spread over the run like the windows are, instead of all falling in one
// few seconds of the host's weather. rewarm is the unmeasured traffic
// that follows each gap.
const (
	segments = 8
	rewarm   = 250 * time.Millisecond
)

// windowOf is the window of an op that started offset into a measured
// span of length dur cut into n windows, or -1 for a warm-up op.
func windowOf(offset, dur time.Duration, n int) int {
	if offset < 0 {
		return -1
	}
	return min(n-1, int(offset*time.Duration(n)/dur))
}

// addLat records the latency of one measured op of class c.
func (t *tally) addLat(c class, lat time.Duration, win int) {
	t.lat[c] = append(t.lat[c], ms(lat))
	t.win[c][win] = append(t.win[c][win], ms(lat))
}

// runOp executes one op's statements in order on sess and checks the
// answer against w. win is the measured window the op started in; a
// warm-up op (win -1) is not charged to the phase but is still checked,
// so every answer the benchmark sees is verified. It returns when the last
// statement answered — so latencies leave out the oracle's own work — and
// whether every statement succeeded and the answer was right.
func runOp(sess session, o op, w want, sh shape, t *tally, win int) (time.Time, bool) {
	stmts := o.stmts(sh)
	rendered := make([]string, 0, len(stmts))
	var answered time.Time
	for _, st := range stmts {
		t0 := time.Now()
		out, err := sess.Execute(st)
		answered = time.Now()
		d := answered.Sub(t0)
		t.stmts++
		if win >= 0 {
			t.measured++
			t.perWin[win]++
			if out != nil {
				t.overhead = append(t.overhead, us(d-out.Wall))
				if t.acc != nil {
					t.acc.add(out.Trace)
				}
			}
		}
		if err != nil {
			t.failed++
			t.note("%s: %v", st, err)
			return answered, false
		}
		rendered = append(rendered, out.Rendered)
	}
	if err := check(o, w, rendered); err != nil {
		t.mismatches++
		t.note("oracle: %v", err)
		return answered, false
	}
	t.rows += int64(max(1, len(w.rows)))
	return answered, true
}

// closedClient is one closed-loop user: it sends its next op only after
// the previous one answered. It owns the emp key stripe of its id.
type closedClient struct {
	id     int
	sess   map[string][]session // by language
	g      *gen
	onSend func(o op) // called just before a write is sent (may be nil)
	onAck  func(o op) // called after a write is acknowledged (may be nil)
	t      tally
}

// runClosed drives the clients concurrently: warm for warm, then measure
// for dur as windows win0 to win0+nWin-1. An op counts if it started
// inside the measured span.
func runClosed(cs []*closedClient, sh shape, model *empModel, warm, dur time.Duration, win0, nWin int, keepOps bool) {
	t0 := time.Now()
	mStart, end := t0.Add(warm), t0.Add(warm+dur)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *closedClient) {
			defer wg.Done()
			for {
				start := time.Now()
				if start.After(end) {
					return
				}
				win := windowOf(start.Sub(mStart), dur, nWin)
				if win >= 0 {
					win += win0
				}
				o := c.g.next(c.id)
				w := expect(o, sh, model)
				if o.kind == kSQLWrite && c.onSend != nil {
					c.onSend(o)
				}
				ss := c.sess[kindLang[o.kind]]
				stop, ok := runOp(ss[c.g.r.Intn(len(ss))], o, w, sh, &c.t, win)
				if ok && o.kind == kSQLWrite {
					model.acknowledge(o)
					if c.onAck != nil {
						c.onAck(o)
					}
				}
				if win >= 0 {
					c.t.addLat(o.kind.class(), stop.Sub(start), win)
					if keepOps {
						c.t.ops = append(c.t.ops, span{start, stop})
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
}

// latencyMetrics reports the end-to-end throughput, latency and ok-share
// of a measured phase of length dur, and returns the sample count behind
// each percentile for the environment line.
func latencyMetrics(m metrics, t *tally, dur time.Duration) map[string]any {
	var rates []float64
	for _, n := range t.perWin {
		rates = append(rates, float64(n)/(dur.Seconds()/windows))
	}
	m.put("throughput_ops", quietHigh(rates), "1/s")
	samples := map[string]any{}
	for c, name := range []string{"read", "scan", "write"} {
		var p50s []float64
		var ns []int
		for _, w := range t.win[c] {
			p50s = append(p50s, summarize(w, 0.5).P50)
			ns = append(ns, len(w))
		}
		tail := summarize(t.lat[c], 0.90)
		p99 := summarize(t.lat[c], 0.99)
		m.put(name+"_p50_ms", quietLow(p50s), "ms")
		m.put(name+"_p90_ms", tail.Tail, "ms")
		samples[name] = map[string]any{"n": len(t.lat[c]), "window_n": ns, "tail_percentile": tail.TailQ * 100,
			"p99_ms": p99.Tail, "p99_percentile": p99.TailQ * 100}
	}
	m.put("ok_share", 1-ratio(float64(t.failed+t.mismatches), float64(t.stmts)), "ratio")
	samples["statements"] = t.stmts
	samples["measured_statements"] = t.measured
	return samples
}

// report logs the first errors of a phase to stderr.
func (t *tally) report(phase string) {
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "mldsperf: %s: %s\n", phase, e)
	}
}
