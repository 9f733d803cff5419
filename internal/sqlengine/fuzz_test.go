package sqlengine

import "testing"

// FuzzSQLParse holds Parse to its contract on any query text, such as a
// corrupted ReadFile leaves in the SQL Server target's buffer: it
// returns either a statement or an error, and never panics. The seeds
// are the statements the other tests execute or reject.
func FuzzSQLParse(f *testing.F) {
	for _, q := range []string{
		"CREATE TABLE parts (id INT, name TEXT, qty INT)",
		"INSERT INTO parts VALUES (1, 'bolt', 40)",
		"SELECT * FROM parts",
		"SELECT name, qty FROM parts WHERE qty > 10",
		"SELECT * FROM parts WHERE name <> 'nut'",
		"SeLeCt a FROM T1 where A = 5",
		"INSERT INTO s VALUES ('it''s')",
		"INSERT INTO n VALUES (-42)",
		"SELECT COUNT(*) FROM parts WHERE qty >= 12",
		"SELECT name, qty FROM parts ORDER BY qty DESC",
		"SELECT name FROM parts ORDER BY name LIMIT 2",
		"UPDATE parts SET qty = 99 WHERE name = 'nut'",
		"DELETE FROM parts WHERE qty < 10",
		"",
		"DROP TABLE parts",
		"CREATE TABLE t2 ()",
		"SELECT * FROM parts WHERE qty !! 3",
		"INSERT INTO parts VALUES (1, 'unterminated, 2)",
		"SELECT * FROM parts LIMIT nope",
		"UPDATE parts SET",
		"DELETE parts",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a statement or an error", src, st, err)
		}
	})
}
