package main

import (
	"fmt"
	"math/rand"

	"mlds/internal/univgen"
)

// kind is one statement shape of the benchmark's traffic.
type kind int

const (
	kSQLRead  kind = iota // SQL point SELECT on emp
	kSQLScan              // SQL multi-row SELECT: one owner's rows of one grp
	kSQLWrite             // SQL point UPDATE on emp
	kDaplex               // Daplex FOR EACH course WHERE title = …
	kDML                  // CODASYL-DML MOVE / FIND ANY / GET on person
	kDLI                  // DL/I GU dept … course …
	kABDL                 // ABDL RETRIEVE of one course
	nKinds
)

var kindNames = [nKinds]string{"sql-read", "sql-scan", "sql-write", "daplex", "dml", "dli", "abdl"}

// kindLang and kindDB name the session a statement of each kind runs on.
var (
	kindLang = [nKinds]string{"sql", "sql", "sql", "daplex", "dml", "dli", "abdl"}
	kindDB   = [nKinds]string{"shop", "shop", "shop", "university", "university", "school", "university"}
)

// langs is the per-client session set, one per language.
var langs = []string{"sql", "daplex", "dml", "dli", "abdl"}

// class is the latency family a statement reports under.
type class int

const (
	clsRead class = iota
	clsScan
	clsWrite
	nClasses
)

func (k kind) class() class {
	switch k {
	case kSQLScan:
		return clsScan
	case kSQLWrite:
		return clsWrite
	}
	return clsRead
}

// mix is a workload's statement mix in parts per thousand, and whether the
// read-only University and school keys are Zipf-skewed (so the result and
// plan caches see repeats) or uniform.
type mix struct {
	weight [nKinds]int
	zipf   bool
}

// op is one unit of traffic: one statement, or the three-statement
// CODASYL-DML MOVE / FIND ANY / GET sequence.
type op struct {
	kind  kind
	owner int   // key stripe (SQL kinds)
	key   int64 // eid, grp, student index, course index
	val   int64 // new pay (writes)
}

// gen draws a deterministic op sequence from a seed and a stream number:
// the same (seed, stream) always gives the same sequence.
type gen struct {
	r      *rand.Rand
	m      mix
	sh     shape
	total  int
	zStu   *rand.Zipf
	zCrs   *rand.Zipf
	zSchl  *rand.Zipf
	nSchl  int
	nCours int
}

func newGen(seed int64, stream int, m mix, sh shape) *gen {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 1))
	g := &gen{r: r, m: m, sh: sh, nSchl: sh.depts * sh.courses, nCours: sh.univ.Courses}
	for _, w := range m.weight {
		g.total += w
	}
	if m.zipf {
		g.zStu = rand.NewZipf(r, 1.1, 1, uint64(sh.univ.Students-1))
		g.zCrs = rand.NewZipf(r, 1.1, 1, uint64(g.nCours-1))
		g.zSchl = rand.NewZipf(r, 1.1, 1, uint64(g.nSchl-1))
	}
	return g
}

// nextKind draws a statement kind by the mix weights.
func (g *gen) nextKind() kind {
	x := g.r.Intn(g.total)
	for k, w := range g.m.weight {
		if x < w {
			return kind(k)
		}
		x -= w
	}
	return kSQLRead
}

// pick draws an index in [0,n), Zipf-skewed when z is set.
func (g *gen) pick(z *rand.Zipf, n int) int64 {
	if z != nil {
		return int64(z.Uint64())
	}
	return int64(g.r.Intn(n))
}

// fill draws the keys of one op of kind k in owner's stripe.
func (g *gen) fill(k kind, owner int) op {
	o := op{kind: k, owner: owner}
	switch k {
	case kSQLRead, kSQLWrite:
		o.key = int64(owner) + int64(g.sh.owners)*int64(g.r.Intn(g.sh.perOwner(owner)))
		if k == kSQLWrite {
			o.val = 1 + g.r.Int63n(9_999_999)
		}
	case kSQLScan:
		o.key = g.r.Int63n(g.sh.groups())
		for g.sh.scanRows(owner, o.key) == 0 {
			o.key = g.r.Int63n(g.sh.groups())
		}
	case kDML:
		o.key = g.pick(g.zStu, g.sh.univ.Students)
	case kDLI:
		o.key = g.pick(g.zSchl, g.nSchl)
	case kDaplex, kABDL:
		o.key = g.pick(g.zCrs, g.nCours)
	}
	return o
}

// watchedWrite draws an UPDATE of one of owner's rows with grp < groups.
func (g *gen) watchedWrite(owner int, groups int64) op {
	grp := g.r.Int63n(groups)
	eids := g.sh.scanEIDs(owner, grp)
	return op{kind: kSQLWrite, owner: owner, key: eids[g.r.Intn(len(eids))], val: 1 + g.r.Int63n(9_999_999)}
}

// next draws one op for a closed-loop client that owns stripe owner.
func (g *gen) next(owner int) op { return g.fill(g.nextKind(), owner) }

// scanEIDs lists the eids of one owner's rows in grp.
func (sh shape) scanEIDs(owner int, grp int64) []int64 {
	var out []int64
	base := grp * int64(sh.owners*sh.perScan)
	for j := 0; j < sh.perScan; j++ {
		eid := base + int64(owner) + int64(j*sh.owners)
		if eid < int64(sh.emp) {
			out = append(out, eid)
		}
	}
	return out
}

func (sh shape) scanRows(owner int, grp int64) int { return len(sh.scanEIDs(owner, grp)) }

// stmts renders the op as the statements a user of its language would type.
func (o op) stmts(sh shape) []string {
	switch o.kind {
	case kSQLRead:
		return []string{fmt.Sprintf("SELECT ename, pay FROM emp WHERE eid = %d", o.key)}
	case kSQLScan:
		return []string{fmt.Sprintf("SELECT eid, pay FROM emp WHERE owner = %d AND grp = %d", o.owner, o.key)}
	case kSQLWrite:
		return []string{fmt.Sprintf("UPDATE emp SET pay = %d WHERE eid = %d", o.val, o.key)}
	case kDaplex:
		return []string{fmt.Sprintf("FOR EACH course WHERE title = '%s' PRINT title, semester, credits;",
			univgen.CourseTitle(int(o.key)))}
	case kDML:
		return []string{
			fmt.Sprintf("MOVE %d TO ssn IN person", studentSSN(sh, int(o.key))),
			"FIND ANY person USING ssn IN person",
			"GET pname IN person",
		}
	case kDLI:
		d, c := int(o.key)/sh.courses, int(o.key)%sh.courses
		return []string{fmt.Sprintf("GU dept (dname = '%s') course (ctitle = '%s')", deptName(d), schoolCourse(d, c))}
	case kABDL:
		return []string{fmt.Sprintf("RETRIEVE ((FILE = course) AND (title = '%s')) (title, semester, credits)",
			univgen.CourseTitle(int(o.key)))}
	}
	return nil
}
