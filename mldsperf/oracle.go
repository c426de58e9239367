package main

import (
	"fmt"
	"regexp"
	"strings"

	"mlds/internal/abdm"
	"mlds/internal/univgen"
)

// The oracle. Every answer is checked against what the benchmark knows the
// database must hold, never against another answer of the system:
//
//   - emp rows: each client (or remote SQL session) owns a disjoint stripe
//     of keys and is its only writer, so a read must return that client's
//     last acknowledged write — or the seeded initial pay;
//   - University and school rows are read only, and their values are
//     univgen's and the loader's deterministic functions of the key.
//
// Checks read Outcome.Rendered, the KFS text a user sees, so the same check
// serves embedded sessions and remote ones.

// empModel is the expected pay of every emp row. Each owner's goroutine
// touches only its own stripe's entries.
type empModel struct{ pay []int64 }

func newEmpModel(sh shape, seed int64) *empModel {
	m := &empModel{pay: make([]int64, sh.emp)}
	for eid := range m.pay {
		m.pay[eid] = initialPay(seed, int64(eid))
	}
	return m
}

// want is what one op must answer: one row of attribute → rendered value
// per kind, or for a scan the rendered pay of every eid it must return.
type want struct {
	row  map[string]string
	rows map[string]string // scan: eid → pay
}

func lit(v abdm.Value) string { return v.String() }

// expect computes the op's answer from the model; call it when the op is
// issued, before any later write of the same owner.
func expect(o op, sh shape, m *empModel) want {
	switch o.kind {
	case kSQLRead:
		return want{row: map[string]string{
			"ename": lit(abdm.String(ename(o.key))), "pay": lit(abdm.Int(m.pay[o.key]))}}
	case kSQLScan:
		rows := map[string]string{}
		for _, eid := range sh.scanEIDs(o.owner, o.key) {
			rows[lit(abdm.Int(eid))] = lit(abdm.Int(m.pay[eid]))
		}
		return want{rows: rows}
	case kDML:
		return want{row: map[string]string{
			"pname": lit(abdm.String(fmt.Sprintf("Student %04d", int(o.key))))}}
	case kDLI:
		d, c := int(o.key)/sh.courses, int(o.key)%sh.courses
		return want{row: map[string]string{
			"ctitle": lit(abdm.String(schoolCourse(d, c))), "credits": lit(abdm.Int(schoolCredits(c)))}}
	case kDaplex, kABDL:
		i := int(o.key)
		return want{row: map[string]string{
			"title":    lit(abdm.String(univgen.CourseTitle(i))),
			"semester": lit(abdm.String(univgen.Semesters[i%len(univgen.Semesters)])),
			"credits":  lit(abdm.Int(int64(2 + i%4))),
		}}
	}
	return want{}
}

// acknowledge records a completed write in the model.
func (m *empModel) acknowledge(o op) {
	if o.kind == kSQLWrite {
		m.pay[o.key] = o.val
	}
}

// check compares the rendered answers of one op's statements with w.
func check(o op, w want, rendered []string) error {
	last := rendered[len(rendered)-1]
	switch o.kind {
	case kSQLWrite:
		if strings.TrimSpace(last) != "1 row(s) affected" {
			return fmt.Errorf("update answered %q, want 1 row affected", last)
		}
		return nil
	case kSQLScan:
		got := map[string]string{}
		for _, r := range parseTable(last) {
			got[r["eid"]] = r["pay"]
		}
		if len(got) != len(w.rows) {
			return fmt.Errorf("scan returned %d rows, want %d", len(got), len(w.rows))
		}
		for eid, pay := range w.rows {
			if got[eid] != pay {
				return fmt.Errorf("scan row eid=%s has pay %s, want %s", eid, got[eid], pay)
			}
		}
		return nil
	}
	var rows []map[string]string
	switch o.kind {
	case kSQLRead, kDaplex:
		rows = parseTable(last)
	case kDML, kDLI:
		rows = []map[string]string{parseAttrs(last)}
	case kABDL:
		rows = parseTuples(last)
	}
	if len(rows) != 1 {
		return fmt.Errorf("%s answered %d rows, want 1: %q", kindNames[o.kind], len(rows), last)
	}
	for attr, v := range w.row {
		if rows[0][attr] != v {
			return fmt.Errorf("%s: %s = %q, want %q", kindNames[o.kind], attr, rows[0][attr], v)
		}
	}
	return nil
}

var (
	cellSep  = regexp.MustCompile(`\s{2,}`)
	attrLine = regexp.MustCompile(`^\s+(\w+)\s+= (.*)$`)
	tuplePat = regexp.MustCompile(`<([^,<>]+), ([^<>]*)>`)
)

// parseTable reads a KFS table: a header line, a dashed rule, then one line
// per row until a blank line or the "(n row(s))" trailer.
func parseTable(s string) []map[string]string {
	lines := strings.Split(s, "\n")
	var out []map[string]string
	for i := 1; i < len(lines); i++ {
		if strings.Trim(lines[i], "- ") != "" || !strings.Contains(lines[i], "-") {
			continue
		}
		cols := cellSep.Split(strings.TrimSpace(lines[i-1]), -1)
		for _, l := range lines[i+1:] {
			l = strings.TrimSpace(l)
			if l == "" || strings.HasPrefix(l, "(") {
				break
			}
			cells := cellSep.Split(l, -1)
			row := map[string]string{}
			for j, c := range cols {
				if j < len(cells) {
					row[c] = cells[j]
				}
			}
			out = append(out, row)
		}
		break
	}
	return out
}

// parseAttrs reads "    attr  = value" lines (CODASYL GET, DL/I GU).
func parseAttrs(s string) map[string]string {
	out := map[string]string{}
	for _, l := range strings.Split(s, "\n") {
		if m := attrLine.FindStringSubmatch(l); m != nil {
			out[m[1]] = strings.TrimSpace(m[2])
		}
	}
	return out
}

// parseTuples reads ABDL result lines "id: (<attr, value>, …)".
func parseTuples(s string) []map[string]string {
	var out []map[string]string
	for _, l := range strings.Split(s, "\n") {
		ms := tuplePat.FindAllStringSubmatch(l, -1)
		if ms == nil {
			continue
		}
		row := map[string]string{}
		for _, m := range ms {
			row[m[1]] = m[2]
		}
		out = append(out, row)
	}
	return out
}
