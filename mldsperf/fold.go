package main

import (
	"sort"
	"time"

	"mlds/internal/obs"
)

// Self-time folding. A session with Config.Tracing returns the request's
// span tree on Outcome.Trace; the benchmark reduces each tree to the time
// every layer spent on its own, excluding the part of its interval that its
// child spans cover. Backend spans of one kernel request run in parallel,
// so coverage is the union of the child intervals, not their sum.

// node is a span reduced to what folding needs.
type node struct {
	name  string
	start time.Time
	dur   time.Duration
	kids  []*node
}

func fromSpan(s *obs.Span) *node {
	if s == nil {
		return nil
	}
	n := &node{name: s.Name, start: s.Start, dur: s.Duration()}
	for _, c := range s.Children() {
		n.kids = append(n.kids, fromSpan(c))
	}
	return n
}

// selfTime is the node's duration minus the union of its children's
// intervals, each clipped to the node's own interval.
func selfTime(n *node) time.Duration {
	type iv struct{ a, b time.Time }
	end := n.start.Add(n.dur)
	var ivs []iv
	for _, k := range n.kids {
		a, b := k.start, k.start.Add(k.dur)
		if a.Before(n.start) {
			a = n.start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return n.dur - covered
}

// layerOf maps a span name to the layer that owns it.
var layerOf = map[string]string{
	"request":       "core",
	"parse":         "parse",
	"kms.translate": "kms",
	"kc.exec":       "kc",
	"kc.batch":      "kc",
	"mbds.batch":    "kc",
	"backend.exec":  "kdb",
	"backend.batch": "kdb",
	"kfs.format":    "kfs",
}

// folded is one statement's trace, reduced.
type folded struct {
	self     map[string]time.Duration // per layer, summed over its spans
	backends []time.Duration          // every backend span's duration
	kernel   int                      // kernel requests (kc spans)
	fanout   []int                    // backend spans under each kc span
	strag    []float64                // slowest over median backend span, per kc span with ≥2
}

func fold(root *node) folded {
	f := folded{self: map[string]time.Duration{}}
	var walk func(n *node)
	walk = func(n *node) {
		layer, ok := layerOf[n.name]
		if ok {
			f.self[layer] += selfTime(n)
		}
		if layer == "kdb" {
			f.backends = append(f.backends, n.dur)
		}
		if n.name == "kc.exec" || n.name == "kc.batch" {
			f.kernel++
			var durs []float64
			var under func(m *node)
			under = func(m *node) {
				for _, k := range m.kids {
					if layerOf[k.name] == "kdb" {
						durs = append(durs, float64(k.dur))
					} else {
						under(k)
					}
				}
			}
			under(n)
			f.fanout = append(f.fanout, len(durs))
			if len(durs) >= 2 {
				if med := median(durs); med > 0 {
					sort.Float64s(durs)
					f.strag = append(f.strag, durs[len(durs)-1]/med)
				}
			}
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	if root != nil {
		walk(root)
	}
	return f
}

// traceAcc accumulates folded statements of one client.
type traceAcc struct {
	stmts    int
	self     map[string][]float64 // µs per statement that touched the layer
	backends []float64            // µs
	kernel   int
	fanout   []float64
	strag    []float64
}

func newTraceAcc() *traceAcc { return &traceAcc{self: map[string][]float64{}} }

func (a *traceAcc) add(s *obs.Span) {
	if s == nil {
		return
	}
	f := fold(fromSpan(s))
	a.stmts++
	for layer, d := range f.self {
		a.self[layer] = append(a.self[layer], us(d))
	}
	for _, d := range f.backends {
		a.backends = append(a.backends, us(d))
	}
	a.kernel += f.kernel
	for _, n := range f.fanout {
		a.fanout = append(a.fanout, float64(n))
	}
	a.strag = append(a.strag, f.strag...)
}

func (a *traceAcc) merge(b *traceAcc) {
	a.stmts += b.stmts
	for k, v := range b.self {
		a.self[k] = append(a.self[k], v...)
	}
	a.backends = append(a.backends, b.backends...)
	a.kernel += b.kernel
	a.fanout = append(a.fanout, b.fanout...)
	a.strag = append(a.strag, b.strag...)
}

// layerMetrics reports the span-derived per-layer metrics. A layer no
// statement touched reads 0.
func (a *traceAcc) layerMetrics(m metrics) {
	p50 := func(v []float64) float64 { return summarize(v, 0.5).P50 }
	mean := func(v []float64) float64 { return summarize(v, 0.5).Mean }
	m.put("parse.self_us_p50", p50(a.self["parse"]), "us")
	m.put("kms.self_us_p50", p50(a.self["kms"]), "us")
	m.put("core.self_us_p50", p50(a.self["core"]), "us")
	m.put("kc.self_us_p50", p50(a.self["kc"]), "us")
	m.put("kfs.self_us_p50", p50(a.self["kfs"]), "us")
	m.put("kdb.backend_us_p50", p50(a.backends), "us")
	m.put("kms.kernel_reqs_per_stmt", ratio(float64(a.kernel), float64(a.stmts)), "count")
	m.put("mbds.backends_per_req", mean(a.fanout), "count")
	m.put("mbds.straggler_ratio", mean(a.strag), "ratio")
}
