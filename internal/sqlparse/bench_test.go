package sqlparse

import "testing"

var benchQueries = []string{
	"SELECT avg(temp) FROM readings",
	"SELECT bucket(epoch(ts), 1800) AS w30, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w30",
	"SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' AND amount BETWEEN -2300 AND 2300 AND memo NOT LIKE '%REFUND%' GROUP BY day HAVING total > 0 ORDER BY day DESC LIMIT 100",
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQueries[i%len(benchQueries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRender(b *testing.B) {
	stmts := make([]*SelectStmt, len(benchQueries))
	for i, q := range benchQueries {
		stmts[i] = mustParse(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stmts[i%len(stmts)].String() == "" {
			b.Fatal("empty")
		}
	}
}
