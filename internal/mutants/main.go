// Command mutants prints the mutation ledger of one package: which small
// edits to its non-test files its tests, and those of any test packages
// named after it, notice.
//
//	go run ./internal/mutants ./internal/exec
//	go run ./internal/mutants ./internal/influence ./internal/core
//
// It walks the package's non-test files with go/ast and lists every
// mutant of five operators:
//   - cmp: a comparison flipped (< and <=, > and >=, == and !=);
//   - bool: && and || swapped;
//   - int: an integer literal moved by +1 or -1;
//   - drop: a call statement or an assignment dropped (wrapped in
//     `if false { … }`, so its operands stay used and it still builds);
//   - nilerr: the error result of a return replaced by nil.
//
// From that list it takes a fixed-seed sample, so the same production
// tree always gives the same mutants, and runs the packages' tests on
// each one through `go test -overlay` — no file in the tree changes —
// with -short -failfast -json. A mutant's test run may take twice the
// unmutated run's wall time plus 20 seconds; past that it is a timeout.
// Each mutant prints one line: position, operator, killed, survived,
// timeout or invalid (it does not build), and the first test that failed.
// Per-file totals close the ledger.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	sampleSize = 100
	sampleSeed = 1
)

// A mutant replaces src[off:end] of file with repl.
type mutant struct {
	file      string
	off, end  int
	repl      string
	op        string
	line, col int
}

var flips = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS, token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL, token.LAND: token.LOR, token.LOR: token.LAND,
}

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: go run ./internal/mutants <package> [test-package…]")
		os.Exit(2)
	}
	pkg, pkgs := os.Args[1], os.Args[1:] // go test runs a package named twice once
	out, err := exec.Command("go", "list", "-f", "{{.Dir}}{{range .GoFiles}} {{.}}{{end}}", pkg).Output()
	if err != nil {
		fatal("go list %s: %v", pkg, err)
	}
	fields := strings.Fields(string(out)) // the directory, then the files
	var all []mutant
	for _, name := range fields[1:] {
		ms, err := collect(filepath.Join(fields[0], name))
		if err != nil {
			fatal("%v", err)
		}
		all = append(all, ms...)
	}
	rand.New(rand.NewSource(sampleSeed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	sample := all[:min(sampleSize, len(all))]
	slices.SortStableFunc(sample, func(a, b mutant) int {
		return cmp.Or(strings.Compare(a.file, b.file), a.off-b.off)
	})

	if tmp, err = os.MkdirTemp("", "mutants"); err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	if status, first := runTests(pkgs, "", 10*time.Minute); status != "survived" {
		fatal("the unmutated tests of %s end %s (%s)", pkgs, status, first)
	}
	timeout := 2*time.Since(start) + 20*time.Second
	fmt.Printf("# %s, tests of %s: %d mutants, %d sampled (seed %d); timeout %s\n", pkg, pkgs, len(all), len(sample), sampleSeed, timeout.Round(time.Second))

	statuses := []string{"killed", "survived", "timeout", "invalid"}
	tally := map[string]*[4]int{}
	var total [4]int
	for i, m := range sample {
		overlay, err := writeOverlay(tmp, i, m)
		if err != nil {
			fatal("%v", err)
		}
		status, first := runTests(pkgs, overlay, timeout)
		base := filepath.Base(m.file)
		fmt.Printf("%s:%d:%d\t%s\t%s\t%s\n", base, m.line, m.col, m.op, status, first)
		if tally[base] == nil {
			tally[base] = new([4]int)
		}
		tally[base][slices.Index(statuses, status)]++
		total[slices.Index(statuses, status)]++
	}
	fmt.Printf("# %-14s %s\n", "file", strings.Join(statuses, " "))
	names := slices.Sorted(maps.Keys(tally))
	tally["total"] = &total
	for _, f := range append(names, "total") {
		row := fmt.Sprintf("# %-14s", f)
		for k, s := range statuses {
			row += fmt.Sprintf(" %*d", len(s), tally[f][k])
		}
		fmt.Println(row)
	}
}

// tmp holds the mutated files; fatal removes it too.
var tmp string

func fatal(format string, args ...any) {
	os.RemoveAll(tmp)
	fmt.Fprintf(os.Stderr, "mutants: "+format+"\n", args...)
	os.Exit(1)
}

// collect lists every mutant of one source file.
func collect(path string) ([]mutant, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return nil, err
	}
	var out []mutant
	add := func(from, to token.Pos, repl, op string) {
		p := fset.Position(from)
		out = append(out, mutant{path, p.Offset, fset.Position(to).Offset, repl, op, p.Line, p.Column})
	}
	text := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	drop := func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.ExprStmt:
				if _, ok := s.X.(*ast.CallExpr); ok {
					add(s.Pos(), s.End(), "if false { "+text(s)+" }", "drop")
				}
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE {
					add(s.Pos(), s.End(), "if false { "+text(s)+" }", "drop")
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			return n.Tok != token.IMPORT
		case *ast.BinaryExpr:
			if to, ok := flips[n.Op]; ok {
				op := "cmp"
				if n.Op == token.LAND || n.Op == token.LOR {
					op = "bool"
				}
				add(n.OpPos, n.OpPos+token.Pos(len(n.Op.String())), to.String(), op+" "+n.Op.String()+" -> "+to.String())
			}
		case *ast.BasicLit:
			if v, err := strconv.ParseInt(n.Value, 0, 64); n.Kind == token.INT && err == nil {
				add(n.Pos(), n.End(), strconv.FormatInt(v+1, 10), fmt.Sprintf("int %s -> %d", n.Value, v+1))
				add(n.Pos(), n.End(), "("+strconv.FormatInt(v-1, 10)+")", fmt.Sprintf("int %s -> %d", n.Value, v-1))
			}
		case *ast.BlockStmt:
			drop(n.List)
		case *ast.CaseClause:
			drop(n.Body)
		case *ast.CommClause:
			drop(n.Body)
		case *ast.FuncDecl:
			nilErrors(n.Type, n.Body, add)
		case *ast.FuncLit:
			nilErrors(n.Type, n.Body, add)
		}
		return true
	})
	return out, nil
}

// nilErrors adds a nilerr mutant for every return in body (not in a
// nested function literal) that names all of ft's results, the last of
// type error, and does not already return nil there.
func nilErrors(ft *ast.FuncType, body *ast.BlockStmt, add func(from, to token.Pos, repl, op string)) {
	if body == nil || ft.Results == nil {
		return
	}
	fields := ft.Results.List
	if id, ok := fields[len(fields)-1].Type.(*ast.Ident); !ok || id.Name != "error" {
		return
	}
	nres := 0
	for _, f := range fields {
		nres += max(1, len(f.Names))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) == nres {
				last := n.Results[nres-1]
				if id, ok := last.(*ast.Ident); !ok || id.Name != "nil" {
					add(last.Pos(), last.End(), "nil", "nilerr")
				}
			}
		}
		return true
	})
}

// writeOverlay writes mutant i's file under dir and the overlay that
// puts it in place of the original.
func writeOverlay(dir string, i int, m mutant) (string, error) {
	src, err := os.ReadFile(m.file)
	if err != nil {
		return "", err
	}
	mutated := filepath.Join(dir, fmt.Sprintf("m%d_%s", i, filepath.Base(m.file)))
	body := slices.Concat(src[:m.off], []byte(m.repl), src[m.end:])
	if err := os.WriteFile(mutated, body, 0o644); err != nil {
		return "", err
	}
	js, _ := json.Marshal(map[string]map[string]string{"Replace": {m.file: mutated}})
	overlay := filepath.Join(dir, "overlay.json")
	return overlay, os.WriteFile(overlay, js, 0o644)
}

// runTests runs pkgs' tests, under overlay if it is not empty, and
// classifies the run: survived (they pass), killed, timeout or invalid.
// first is the first test that failed, as package.Test, or "-".
func runTests(pkgs []string, overlay string, timeout time.Duration) (status, first string) {
	args := []string{"test", "-short", "-failfast", "-json", "-count=1", "-timeout", timeout.String()}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	// -timeout panics a hung test binary; the context ends a go command
	// stuck past it (a build, say), and WaitDelay stops waiting for output.
	ctx, cancel := context.WithTimeout(context.Background(), timeout+time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append(args, pkgs...)...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr, cmd.WaitDelay = &buf, &buf, 10*time.Second
	err := cmd.Run()
	first, running, timedOut, buildFailed := "-", "", ctx.Err() != nil, false
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(line, &ev) != nil {
			buildFailed = buildFailed || bytes.Contains(line, []byte("build failed"))
			continue
		}
		name := filepath.Base(ev.Package) + "." + ev.Test
		if ev.Action == "run" {
			running = name
		}
		if ev.Action == "fail" && ev.Test != "" && first == "-" {
			first = name
		}
		timedOut = timedOut || strings.Contains(ev.Output, "panic: test timed out")
		buildFailed = buildFailed || ev.Action == "build-fail" || strings.Contains(ev.Output, "[build failed]")
	}
	if first == "-" && err != nil && running != "" {
		first = running // the binary died (a panic, a timeout) inside it
	}
	switch {
	case timedOut:
		return "timeout", first
	case err == nil:
		return "survived", first
	case buildFailed:
		return "invalid", first
	}
	return "killed", first
}
