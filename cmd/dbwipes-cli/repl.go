package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/predicate"
)

// repl drives the full DBWipes loop interactively:
//
//	dbwipes> q SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day
//	dbwipes> s total < 0
//	dbwipes> m toolow(c=0)
//	dbwipes> x amount < 0
//	dbwipes> debug
//	dbwipes> clean 0
//	dbwipes> quit
type repl struct {
	db      *engine.DB
	out     io.Writer
	noPlot  bool
	res     *exec.Result
	sql     string
	suspect []int
	metric  errmetric.Metric
	exCond  string
	lastDbg *core.DebugResult
	applied []predicate.Predicate
}

const replHelp = `commands:
  q <sql>        run an aggregate query (cleaning predicates stay applied)
  s <cond>       select suspicious groups S by a condition over result columns
  m <spec>       set the error metric, e.g. toolow(c=0), toohigh(c=70), diff(c=70)
  x <cond>       select example tuples D' by a condition over source columns
  debug          compute the ranked predicates
  clean <i>      apply the i'th predicate (WHERE ... AND NOT pred) and re-run
  reset          drop all applied predicates and re-run
  show           re-plot the current result
  help           this text
  quit           exit`

func runREPL(db *engine.DB, in io.Reader, out io.Writer, noPlot bool) error {
	r := &repl{db: db, out: out, noPlot: noPlot}
	fmt.Fprintf(out, "DBWipes interactive session. Tables: %s\n%s\n", strings.Join(db.Names(), ", "), replHelp)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "dbwipes> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var err error
		switch strings.ToLower(cmd) {
		case "q", "query":
			err = r.query(rest)
		case "s", "suspect":
			err = r.selectSuspect(rest)
		case "m", "metric":
			r.metric, err = errmetric.ParseSpec(rest)
			if err == nil {
				fmt.Fprintf(out, "metric: %s\n", r.metric)
			}
		case "x", "examples":
			r.exCond = rest
			fmt.Fprintf(out, "D' condition: %q\n", rest)
		case "debug":
			err = r.debug()
		case "clean":
			err = r.clean(rest)
		case "reset":
			r.applied = nil
			if r.sql != "" {
				err = r.query(r.sql)
			}
		case "show":
			if r.res != nil && !r.noPlot {
				fmt.Fprintln(out, plotResult(r.res, r.suspect))
			}
		case "help", "?":
			fmt.Fprintln(out, replHelp)
		case "quit", "exit", `\q`:
			return nil
		default:
			err = fmt.Errorf("unknown command %q (try help)", cmd)
		}
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

func (r *repl) query(sql string) error {
	if sql == "" {
		return fmt.Errorf("usage: q <sql>")
	}
	res, err := runCleaned(r.db, sql, r.applied)
	if err != nil {
		return err
	}
	r.sql = sql
	r.res = res
	r.suspect = nil
	r.lastDbg = nil
	fmt.Fprintf(r.out, "%d groups\n", res.NumRows())
	if !r.noPlot {
		fmt.Fprintln(r.out, plotResult(res, nil))
	}
	return nil
}

func (r *repl) selectSuspect(cond string) error {
	if r.res == nil {
		return fmt.Errorf("run a query first")
	}
	if cond == "" {
		return fmt.Errorf("usage: s <condition over result columns>")
	}
	suspect, err := selectSuspect(r.res, cond)
	if err != nil {
		return err
	}
	r.suspect = suspect
	fmt.Fprintf(r.out, "S: %d groups match %q\n", len(suspect), cond)
	if !r.noPlot && len(suspect) > 0 {
		fmt.Fprintln(r.out, plotResult(r.res, suspect))
	}
	return nil
}

func (r *repl) debug() error {
	switch {
	case r.res == nil:
		return fmt.Errorf("run a query first")
	case len(r.suspect) == 0:
		return fmt.Errorf("select suspicious groups first (s <cond>)")
	case r.metric == nil:
		return fmt.Errorf("set an error metric first (m <spec>)")
	}
	var examples []int
	if r.exCond != "" {
		var err error
		examples, err = core.ExamplesWhere(r.res, r.suspect, r.exCond)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "D': %d example tuples\n", len(examples))
	}
	dr, err := core.Debug(core.DebugRequest{
		Result: r.res, AggItem: -1, Suspect: r.suspect,
		Examples: examples, Metric: r.metric,
	})
	if err != nil {
		return err
	}
	r.lastDbg = dr
	fmt.Fprintf(r.out, "ε = %.2f over %d lineage tuples\n", dr.Eps, len(dr.F))
	for i, e := range dr.Explanations {
		fmt.Fprintf(r.out, "  [%d] %s\n", i, e.Scored)
	}
	return nil
}

func (r *repl) clean(arg string) error {
	if r.lastDbg == nil {
		return fmt.Errorf("debug first")
	}
	i, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil || i < 0 || i >= len(r.lastDbg.Explanations) {
		return fmt.Errorf("usage: clean <0..%d>", len(r.lastDbg.Explanations)-1)
	}
	pred := r.lastDbg.Explanations[i].Pred
	r.applied = append(r.applied, pred)
	if err := r.query(r.sql); err != nil {
		r.applied = r.applied[:len(r.applied)-1]
		return err
	}
	fmt.Fprintf(r.out, "applied NOT (%s); %d predicate(s) active\n", pred, len(r.applied))
	return nil
}
