package main

import (
	"fmt"
	"strings"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/core"
	"mlds/internal/univ"
	"mlds/internal/univgen"
)

// shape sizes a workload's databases. Everything loaded is a deterministic
// function of the shape and the seed, so the oracle can predict every
// answer without asking the system.
type shape struct {
	univ           univgen.Config // functional University (read only)
	depts, courses int            // hierarchical school: depts × courses per dept (read only)
	emp            int            // relational emp rows
	owners         int            // key stripes: row eid belongs to owner eid % owners
	perScan        int            // rows one scan returns: one owner's rows in one grp
}

// univConfig is ~2 000 students, about 9k kernel records.
var univConfig = univgen.Config{
	Departments: 20, Courses: 200, Faculty: 100, Students: 2000, Staff: 50,
	EnrollPerStudent: 3, TeachPerFaculty: 2,
}

const (
	empDDL    = "CREATE TABLE emp (eid INTEGER NOT NULL, owner INTEGER, grp INTEGER, ename CHAR(24), pay INTEGER, note CHAR(80));"
	schoolDBD = "DBD NAME IS school\nSEGMENT NAME IS dept\n    FIELD dname CHAR 20\n" +
		"SEGMENT NAME IS course PARENT IS dept\n    FIELD ctitle CHAR 30\n    FIELD credits INTEGER\n"
	loadBatch = 256
)

// note pads an emp row to ~140 bytes of user data.
var note = strings.Repeat("n", 64)

func (sh shape) grpOf(eid int64) int64 { return eid / int64(sh.owners*sh.perScan) }
func (sh shape) groups() int64 {
	return (int64(sh.emp) + int64(sh.owners*sh.perScan) - 1) / int64(sh.owners*sh.perScan)
}
func (sh shape) perOwner(owner int) int { return (sh.emp - owner + sh.owners - 1) / sh.owners }
func ename(eid int64) string            { return fmt.Sprintf("E%06d", eid) }

// initialPay is row eid's pay before any write: a function of the seed, so
// two seeds load different data.
func initialPay(seed, eid int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(eid)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return 1000 + int64(x%900_000)
}

// empRecord is the kernel record of one emp row.
func (sh shape) empRecord(seed, eid int64) *abdm.Record {
	return abdm.NewRecord("emp",
		abdm.Keyword{Attr: "eid", Val: abdm.Int(eid)},
		abdm.Keyword{Attr: "owner", Val: abdm.Int(eid % int64(sh.owners))},
		abdm.Keyword{Attr: "grp", Val: abdm.Int(sh.grpOf(eid))},
		abdm.Keyword{Attr: "ename", Val: abdm.String(ename(eid))},
		abdm.Keyword{Attr: "pay", Val: abdm.Int(initialPay(seed, eid))},
		abdm.Keyword{Attr: "note", Val: abdm.String(note)})
}

// loadShop creates the relational shop database and loads emp.
func loadShop(sys *core.System, sh shape, seed int64) (*core.Database, error) {
	db, err := sys.CreateRelational("shop", empDDL)
	if err != nil {
		return nil, err
	}
	return db, loadEmp(db, sh, seed)
}

// loadEmp bulk-loads emp through the kernel controller in batched rounds.
func loadEmp(db *core.Database, sh shape, seed int64) error {
	reqs := make([]*abdl.Request, 0, loadBatch)
	for eid := int64(0); eid < int64(sh.emp); eid++ {
		reqs = append(reqs, abdl.NewInsert(sh.empRecord(seed, eid)))
		if len(reqs) == loadBatch || eid == int64(sh.emp)-1 {
			if _, err := db.Ctrl.ExecBatch(reqs); err != nil {
				return fmt.Errorf("load emp: %w", err)
			}
			reqs = reqs[:0]
		}
	}
	return nil
}

// empUserBytes is the user data of the emp table: four integers, the name
// and the note of every row.
func (sh shape) empUserBytes() int64 {
	return int64(sh.emp) * int64(4*8+len(ename(0))+len(note))
}

// loadUniversity creates and populates the functional University database.
func loadUniversity(sys *core.System, sh shape) error {
	db, err := sys.CreateFunctional("university", univ.SchemaDDL)
	if err != nil {
		return err
	}
	inst, err := univgen.Populate(db.Mapping, db.AB, sh.univ)
	if err != nil {
		return err
	}
	_, err = db.LoadInstance(inst)
	return err
}

// loadSchool creates the hierarchical school database through DL/I ISRT.
func loadSchool(sys *core.System, sh shape) error {
	if _, err := sys.CreateHierarchical("school", schoolDBD); err != nil {
		return err
	}
	s, err := sys.Open("school", "dli")
	if err != nil {
		return err
	}
	defer s.Close()
	for d := 0; d < sh.depts; d++ {
		if _, err := s.Execute(fmt.Sprintf("ISRT dept (dname = '%s')", deptName(d))); err != nil {
			return err
		}
		for c := 0; c < sh.courses; c++ {
			if _, err := s.Execute(fmt.Sprintf("ISRT course (ctitle = '%s', credits = %d)",
				schoolCourse(d, c), schoolCredits(c))); err != nil {
				return err
			}
		}
	}
	return nil
}

func deptName(d int) string            { return fmt.Sprintf("D%02d", d) }
func schoolCourse(d, c int) string     { return fmt.Sprintf("C%02d-%02d", d, c) }
func schoolCredits(c int) int64        { return int64(c%4 + 1) }
func studentSSN(sh shape, i int) int64 { return 100_00_0000 + int64(sh.univ.Faculty) + 1 + int64(i) }

// loadAll builds the three databases every five-language workload reads.
func loadAll(sys *core.System, sh shape, seed int64) error {
	if err := loadUniversity(sys, sh); err != nil {
		return err
	}
	if err := loadSchool(sys, sh); err != nil {
		return err
	}
	_, err := loadShop(sys, sh, seed)
	return err
}

// userBytes sums the bytes of every attribute value the databases hold,
// excluding the FILE tag: strings by length, numbers as 8 bytes.
func userBytes(sys *core.System) (int64, error) {
	var n int64
	for _, info := range sys.Databases() {
		db, _ := sys.Database(info.Name)
		snap, err := db.Kernel.Snapshot()
		if err != nil {
			return 0, err
		}
		for _, sr := range snap {
			for _, kw := range sr.Rec.Keywords {
				switch {
				case kw.Attr == abdm.FileAttr:
				case kw.Val.Kind() == abdm.KindString:
					n += int64(len(kw.Val.AsString()))
				case !kw.Val.IsNull():
					n += 8
				}
			}
		}
	}
	return n, nil
}
