package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xnf/internal/types"
)

// buildSideDB holds three tables joined on non-indexed columns (a PK key
// would compile to an index nested-loop join instead), with NULL join keys
// on every side: S is small, M medium, B large.
func buildSideDB(t *testing.T, column bool) *Database {
	t.Helper()
	db := Open()
	if err := db.ExecScript(`
CREATE TABLE S (id INT NOT NULL, k INT, v INT, PRIMARY KEY (id));
CREATE TABLE M (id INT NOT NULL, k INT, j INT, v INT, PRIMARY KEY (id));
CREATE TABLE B (id INT NOT NULL, k INT, j INT, v INT, PRIMARY KEY (id));
INSERT INTO S VALUES (1, 1, 10), (2, 2, 20), (3, NULL, 30), (4, 3, 40);
`); err != nil {
		t.Fatal(err)
	}
	nullEvery := func(i, n, mod int) types.Value {
		if i%n == 0 {
			return types.Null
		}
		return types.NewInt(int64(i % mod))
	}
	for _, tb := range []struct {
		name string
		rows int
	}{{"M", 24}, {"B", 120}} {
		td, err := db.Store().Table(tb.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= tb.rows; i++ {
			if _, err := td.Insert(types.Row{
				types.NewInt(int64(i)), nullEvery(i, 7, 5), nullEvery(i, 11, 4), types.NewInt(int64(i % 50)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if column {
		for _, tbl := range []string{"S", "M", "B"} {
			if _, err := db.Exec("ALTER TABLE " + tbl + " SET STORAGE COLUMN"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// keyed counts the rows of a buildSideDB table whose column is not NULL.
func keyed(t *testing.T, db *Database, table, col string) int64 {
	t.Helper()
	res, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s IS NOT NULL", table, col))
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

// resultLines renders a result as sorted row strings (a multiset).
func resultLines(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestPlannerBuildSide checks that 2-way and 3-way hash joins build on the
// smaller input — the bound prefix once the next quantifier is larger —
// in both executors and both storage kinds, with NULL keys on either
// side, and that the swapped join returns exactly what the
// syntax-order hash join and the nested-loop join return.
func TestPlannerBuildSide(t *testing.T) {
	for _, column := range []bool{false, true} {
		db := buildSideDB(t, column)
		sKeyed := keyed(t, db, "S", "k")
		bKeyed := keyed(t, db, "B", "k")
		mKeyed := keyed(t, db, "M", "k")
		bjKeyed := keyed(t, db, "B", "j")
		cases := []struct {
			sql          string
			build, probe int64 // -1: not pinned
		}{
			{"SELECT s.id, b.id, s.v, b.v FROM S s, B b WHERE s.k = b.k", sKeyed, bKeyed},
			{"SELECT b.id, s.id FROM B b, S s WHERE b.k = s.k", sKeyed, bKeyed},
			{"SELECT b.v, s.v FROM B b, S s WHERE b.k = s.k AND b.v > s.v", sKeyed, bKeyed},
			{"SELECT s.k, COUNT(*), SUM(b.v) FROM S s, B b WHERE s.k = b.k GROUP BY s.k", sKeyed, bKeyed},
			// 3-way: S builds against M, then the S⋈M prefix builds
			// against B, so M and B are the probe sides.
			{"SELECT s.id, m.id, b.id FROM S s, M m, B b WHERE s.k = m.k AND m.j = b.j", -1, mKeyed + bjKeyed},
			{"SELECT b.id, m.v, s.v FROM B b, M m, S s WHERE m.j = b.j AND s.k = m.k AND b.v < m.v + s.v", -1, mKeyed + bjKeyed},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("column=%v %s", column, tc.sql)
			prev := db.OptOptions
			var want []string
			for _, ref := range []func(){
				func() { db.OptOptions.HashJoin, db.OptOptions.IndexNL = false, false },
				func() { db.OptOptions.JoinOrdering = false },
			} {
				ref()
				res, err := db.Query(tc.sql)
				db.OptOptions = prev
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := resultLines(res)
				if want == nil {
					want = got
				} else if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("%s: syntax-order hash join differs from nested loop", name)
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s: empty result; the data should join", name)
			}
			var counters []string
			for _, vec := range []bool{false, true} {
				db.OptOptions.Vectorize = vec
				res, err := db.Query(tc.sql)
				db.OptOptions = prev
				if err != nil {
					t.Fatalf("%s vectorize=%v: %v", name, vec, err)
				}
				if got := resultLines(res); strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("%s vectorize=%v:\n got %v\nwant %v", name, vec, got, want)
				}
				c := res.Counters
				if tc.build >= 0 && c.JoinBuildRows != tc.build {
					t.Errorf("%s vectorize=%v: join_build=%d, want %d", name, vec, c.JoinBuildRows, tc.build)
				}
				if c.JoinProbeRows != tc.probe {
					t.Errorf("%s vectorize=%v: join_probe=%d, want %d", name, vec, c.JoinProbeRows, tc.probe)
				}
				if c.JoinBuildRows >= c.JoinProbeRows {
					t.Errorf("%s vectorize=%v: built %d rows against %d probes", name, vec, c.JoinBuildRows, c.JoinProbeRows)
				}
				counters = append(counters, fmt.Sprintf("build=%d probe=%d", c.JoinBuildRows, c.JoinProbeRows))
			}
			if counters[0] != counters[1] {
				t.Errorf("%s: row executor %s, batch executor %s", name, counters[0], counters[1])
			}
		}
	}
}

// TestPlannerDistinctElimination checks key-based DISTINCT elimination:
// the operator disappears only for a single base table whose primary key
// the head carries as plain columns, and every query — dropped or kept —
// returns the set of its non-DISTINCT form under both executors.
func TestPlannerDistinctElimination(t *testing.T) {
	db := orgDB(t)
	if _, err := db.Exec("INSERT INTO EMP VALUES (6, 'e1', 1, 100)"); err != nil { // duplicates e1's ename/edno/sal
		t.Fatal(err)
	}
	cases := []struct {
		sql  string
		kept bool
	}{
		{"SELECT DISTINCT eno, ename FROM EMP", false},
		{"SELECT DISTINCT sal, eno FROM EMP WHERE sal > 150", false},
		{"SELECT DISTINCT d.dno, d.loc FROM DEPT d", false},
		{"SELECT DISTINCT x.eno FROM (SELECT eno, ename FROM EMP) x", false},
		// Kept: more than one quantifier.
		{"SELECT DISTINCT e.eno, d.dno FROM EMP e, DEPT d WHERE e.edno = d.dno", true},
		// Kept: the head misses the primary key.
		{"SELECT DISTINCT ename, edno FROM EMP", true},
		{"SELECT DISTINCT ename, sal FROM EMP", true},
		// Kept: an expression over the key is not a plain column.
		{"SELECT DISTINCT eno + 0 FROM EMP", true},
		{"SELECT DISTINCT eno / 10 FROM EMP", true},
		// Kept: the table has no primary key.
		{"SELECT DISTINCT eseno, essno FROM EMPSKILLS", true},
		{"SELECT DISTINCT essno FROM EMPSKILLS", true},
	}
	for _, tc := range cases {
		prev := db.OptOptions
		for _, vec := range []bool{false, true} {
			db.OptOptions.Vectorize = vec
			plan, err := db.Explain(tc.sql)
			if err != nil {
				db.OptOptions = prev
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if kept := strings.Contains(plan, "Distinct"); kept != tc.kept {
				t.Errorf("%s vectorize=%v: DISTINCT kept=%v, want %v\n%s", tc.sql, vec, kept, tc.kept, plan)
			}
			res, err := db.Query(tc.sql)
			if err != nil {
				db.OptOptions = prev
				t.Fatalf("%s: %v", tc.sql, err)
			}
			all, err := db.Query(strings.Replace(tc.sql, "DISTINCT ", "", 1))
			db.OptOptions = prev
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			set := resultLines(all)
			uniq := set[:0]
			for i, l := range set {
				if i == 0 || l != set[i-1] {
					uniq = append(uniq, l)
				}
			}
			if got := resultLines(res); strings.Join(got, ";") != strings.Join(uniq, ";") {
				t.Errorf("%s vectorize=%v:\n got %v\nwant %v", tc.sql, vec, got, uniq)
			}
		}
	}
}
