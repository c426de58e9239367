package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlds/internal/core"
	"mlds/internal/obs"
)

func TestSameSeedSameStatements(t *testing.T) {
	seq := func(seed int64, stream int) []string {
		g := newGen(seed, stream, localMixW, localShape)
		var out []string
		for i := 0; i < 2000; i++ {
			o := g.next(stream)
			out = append(out, fmt.Sprintf("%d", o.val))
			out = append(out, o.stmts(localShape)...)
		}
		return out
	}
	a, b := seq(7, 1), seq(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and stream gave two statement sequences")
	}
	if reflect.DeepEqual(a, seq(8, 1)) {
		t.Fatal("seeds 7 and 8 gave the same statement sequence")
	}
	if reflect.DeepEqual(a, seq(7, 0)) {
		t.Fatal("two client streams of one seed gave the same sequence")
	}
	if initialPay(7, 5) == initialPay(8, 5) {
		t.Fatal("the loaded data does not depend on the seed")
	}
}

func TestGenStaysInOwnStripe(t *testing.T) {
	sh := localShape
	sh.owners = 2 // the workloads run one client; the stripes must hold for more
	g := newGen(3, 1, localMixW, sh)
	for i := 0; i < 5000; i++ {
		o := g.next(1)
		switch o.kind {
		case kSQLRead, kSQLWrite:
			if o.key%int64(sh.owners) != 1 || o.key >= int64(sh.emp) {
				t.Fatalf("%s of eid %d outside stripe 1", kindNames[o.kind], o.key)
			}
		case kSQLScan:
			for _, eid := range sh.scanEIDs(1, o.key) {
				if eid%int64(sh.owners) != 1 {
					t.Fatalf("scan of grp %d covers eid %d of another stripe", o.key, eid)
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return v
	}
	cases := []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{1000, 0.99, 990},
		{999, 0.95, 950},
		{200, 0.95, 190},
		{100, 0.90, 90},
		{99, 0.50, 50},
		{3, 0.50, 2},
	}
	for _, c := range cases {
		s := summarize(ramp(c.n), 0.99)
		if s.TailQ != c.tailQ || s.Tail != c.tail || s.N != c.n {
			t.Errorf("n=%d: reported p%v=%v, want p%v=%v", c.n, s.TailQ*100, s.Tail, c.tailQ*100, c.tail)
		}
	}
	if s := summarize(ramp(1000), 0.99); s.P50 != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", s.P50)
	}
	if s := summarize(nil, 0.99); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestQuietQuartiles(t *testing.T) {
	// As Python's statistics.quantiles(v, n=4, method="inclusive").
	v := []float64{5, 1, 4, 2, 3}
	if got := quietLow(v); got != 2 {
		t.Errorf("lower quartile of 1..5 = %v, want 2", got)
	}
	if got := quietHigh(v); got != 4 {
		t.Errorf("upper quartile of 1..5 = %v, want 4", got)
	}
	if got := quietLow([]float64{10, 20}); got != 12.5 {
		t.Errorf("lower quartile of 10, 20 = %v, want 12.5", got)
	}
	if quietLow(nil) != 0 || quietHigh([]float64{7}) != 7 {
		t.Error("quartiles of empty or single sets")
	}
}

func TestSelfTimeFolding(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	n := func(name string, from, to int, kids ...*node) *node {
		return &node{name: name, start: at(from), dur: time.Duration(to-from) * time.Microsecond, kids: kids}
	}
	// A request whose KC request fans out to three backends in parallel,
	// one of them a straggler.
	root := n("request", 0, 200,
		n("parse", 5, 15),
		n("kms.translate", 20, 150,
			n("kc.exec", 30, 140,
				n("backend.exec", 40, 60),
				n("backend.exec", 45, 70),
				n("backend.exec", 50, 130))),
		n("kfs.format", 160, 170))
	f := fold(root)
	want := map[string]time.Duration{
		"core":  200 - 10 - 130 - 10,
		"parse": 10,
		"kms":   130 - 110,
		"kc":    110 - 90, // backends cover 40..130 as one union
		"kdb":   20 + 25 + 80,
		"kfs":   10,
	}
	for layer, us := range want {
		if got := f.self[layer]; got != us*time.Microsecond {
			t.Errorf("self[%s] = %v, want %vµs", layer, got, int64(us))
		}
	}
	if f.kernel != 1 || !reflect.DeepEqual(f.fanout, []int{3}) {
		t.Errorf("kernel requests %d, fan-out %v; want 1 and [3]", f.kernel, f.fanout)
	}
	if len(f.strag) != 1 || f.strag[0] != 80.0/25.0 {
		t.Errorf("straggler ratio %v, want [3.2]", f.strag)
	}

	// A child sticking out of its parent is clipped to the parent.
	clipped := n("request", 0, 100, n("parse", 90, 120))
	if got := selfTime(clipped); got != 90*time.Microsecond {
		t.Errorf("clipped self time %v, want 90µs", got)
	}
}

func TestFoldRealSpanTree(t *testing.T) {
	// A tree built through the obs API: sequential children, so the self
	// times of all layers add up to the root's duration exactly.
	ctx, root := obs.NewTrace(context.Background(), "request")
	_, parse := obs.StartSpan(ctx, "parse")
	time.Sleep(time.Millisecond)
	parse.End()
	kctx, kms := obs.StartSpan(ctx, "kms.translate")
	cctx, kc := obs.StartSpan(kctx, "kc.exec")
	for i := 0; i < 2; i++ {
		_, b := obs.StartSpan(cctx, "backend.exec")
		time.Sleep(time.Millisecond)
		b.End()
	}
	kc.End()
	kms.End()
	root.End()

	tree := fromSpan(root)
	if tree.name != "request" || len(tree.kids) != 2 || tree.dur != root.Duration() {
		t.Fatalf("converted tree %+v does not mirror the span tree", tree)
	}
	f := fold(tree)
	var sum time.Duration
	for _, d := range f.self {
		sum += d
	}
	if sum != root.Duration() {
		t.Errorf("self times sum to %v, root lasted %v", sum, root.Duration())
	}
	if f.kernel != 1 || len(f.backends) != 2 || f.self["parse"] < time.Millisecond {
		t.Errorf("fold = %+v", f)
	}
	acc := newTraceAcc()
	acc.add(root)
	acc.add(nil) // untraced outcome: ignored
	if acc.stmts != 1 || acc.kernel != 1 {
		t.Errorf("accumulated %d statements, %d kernel requests; want 1 and 1", acc.stmts, acc.kernel)
	}
}

// TestOracleRejectsStaleRead runs real statements on a small system: a
// read after an acknowledged write passes only against the new value.
func TestOracleRejectsStaleRead(t *testing.T) {
	sh := shape{emp: 400, owners: 2, perScan: 10}
	sys := core.NewSystem(core.DefaultConfig())
	defer sys.Close()
	if _, err := loadShop(sys, sh, 5); err != nil {
		t.Fatal(err)
	}
	s, err := sys.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := newEmpModel(sh, 5)
	stale := newEmpModel(sh, 5)
	var tl tally

	write := op{kind: kSQLWrite, owner: 1, key: 21, val: 4242}
	if _, ok := runOp(s, write, want{}, sh, &tl, 0); !ok {
		t.Fatalf("write failed: %v", tl.errs)
	}
	model.acknowledge(write)

	read := op{kind: kSQLRead, owner: 1, key: 21}
	scan := op{kind: kSQLScan, owner: 1, key: sh.grpOf(21)}
	for _, o := range []op{read, scan} {
		if _, ok := runOp(s, o, expect(o, sh, model), sh, &tl, 0); !ok {
			t.Fatalf("%s after the write was rejected: %v", kindNames[o.kind], tl.errs)
		}
		before := tl.mismatches
		if _, ok := runOp(s, o, expect(o, sh, stale), sh, &tl, 0); ok || tl.mismatches != before+1 {
			t.Fatalf("%s: the oracle accepted the value from before the acknowledged write", kindNames[o.kind])
		}
	}
	if tl.failed != 0 {
		t.Fatalf("statement errors: %v", tl.errs)
	}
}

func TestRenderedParsers(t *testing.T) {
	table := "eid  pay   \n---  ----\n243  1243\n247  'a b'\n(2 row(s))"
	rows := parseTable(table)
	if len(rows) != 2 || rows[0]["eid"] != "243" || rows[1]["pay"] != "'a b'" {
		t.Errorf("parseTable = %v", rows)
	}
	attrs := parseAttrs("ok course (key 42)\n    credits          = 4\n    ctitle           = 'C03-07'")
	if attrs["credits"] != "4" || attrs["ctitle"] != "'C03-07'" {
		t.Errorf("parseAttrs = %v", attrs)
	}
	tuples := parseTuples("10: (<title, 'Course 017'>, <semester, 'Winter'>, <credits, 3>)")
	if len(tuples) != 1 || tuples[0]["title"] != "'Course 017'" || tuples[0]["credits"] != "3" {
		t.Errorf("parseTuples = %v", tuples)
	}
	if err := check(op{kind: kSQLWrite}, want{}, []string{"0 row(s) affected"}); err == nil ||
		!strings.Contains(err.Error(), "1 row") {
		t.Errorf("an update that changed nothing passed the oracle: %v", err)
	}
}
