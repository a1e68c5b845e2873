package repro_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const surfaceFile = "testdata/surface.txt"

// surfaceTags are the reasons a production function no surface runs may
// stay; testdata/surface.txt's header says what each one means.
var surfaceTags = []string{"oracle", "test double", "error path", "bench API", "dead"}

// TestSurfaceLedger holds testdata/surface.txt — the production
// functions `make surface` saw run on no surface — to its own rules
// without a coverage run: each line names a function that exists in its
// file, carries one of the five tags, an "error path" line names a test
// that exists, and no line is tagged dead (dead code is deleted, not
// listed).
func TestSurfaceLedger(t *testing.T) {
	tests := map[string]bool{} // every Test/Fuzz function of the module
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, "_test.go") {
			names, err := funcNames(p)
			for _, name := range names {
				tests[name] = true
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := map[string][]string{} // file → its functions, as covdata names them
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("%s:%d: want \"file function tag\", got %q", surfaceFile, n, line)
			continue
		}
		file, fn, tag := fields[0], fields[1], strings.Join(fields[2:], " ")
		if seen[file+" "+fn] {
			t.Errorf("%s:%d: %s %s is listed twice", surfaceFile, n, file, fn)
		}
		seen[file+" "+fn] = true
		if _, ok := funcs[file]; !ok {
			if funcs[file], err = funcNames(file); err != nil {
				t.Errorf("%s:%d: %v", surfaceFile, n, err)
			}
		}
		if !slices.Contains(funcs[file], fn) {
			t.Errorf("%s:%d: %s declares no function %s", surfaceFile, n, file, fn)
		}
		test, isErrPath := strings.CutPrefix(tag, "error path ")
		switch {
		case isErrPath:
			if !tests[test] {
				t.Errorf("%s:%d: %s: error path names %q, which is no test function", surfaceFile, n, fn, test)
			}
		case tag == "dead":
			t.Errorf("%s:%d: %s is tagged dead: delete it, then its line", surfaceFile, n, fn)
		case !slices.Contains(surfaceTags, tag):
			t.Errorf("%s:%d: %s has tag %q, want one of %q (an error path names its test)", surfaceFile, n, fn, tag, surfaceTags)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// funcNames returns the top-level functions of one Go file as `go tool
// covdata func` names them: "F", "T.M" or "*T.M".
func funcNames(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			recv := fd.Recv.List[0].Type
			star := ""
			if s, ok := recv.(*ast.StarExpr); ok {
				star, recv = "*", s.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			name = star + recv.(*ast.Ident).Name + "." + name
		}
		names = append(names, name)
	}
	return names, nil
}

// TestBenchAPIOnlyInBench keeps the package-level functions
// testdata/surface.txt tags "bench API" — the context-less shims bench/,
// a module of its own, compiles against — for bench/ alone: no Go file
// outside bench/, tests included, may name one, through its import
// (exec.RunSQL) or bare inside its own package. The shims' own
// declarations are exempt. Methods tagged "bench API" (*DB.Append,
// *Result.Lineage, …) are not checked: which type a selector's receiver
// has takes type information, which go/parser does not give.
func TestBenchAPIOnlyInBench(t *testing.T) {
	shims := map[string][]string{} // package dir → its bench-only functions
	f, err := os.Open(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || strings.HasPrefix(fields[0], "#") || strings.Join(fields[2:], " ") != "bench API" || strings.Contains(fields[1], ".") {
			continue
		}
		dir := path.Dir(fields[0])
		shims[dir] = append(shims[dir], fields[1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(shims) == 0 {
		t.Fatalf("%s tags no package-level function bench API: with the last shim gone, delete this test", surfaceFile)
	}

	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "bench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		imports := map[string]string{} // local name → package dir with shims
		for _, imp := range file.Imports {
			pdir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "repro/")
			if !ok || shims[pdir] == nil {
				continue
			}
			name := path.Base(pdir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = pdir
		}
		var own []string // names callable bare here: this file is in the shims' package
		if file.Name.Name == path.Base(dir) {
			own = shims[dir]
		}
		report := func(n ast.Node, name string) {
			t.Errorf("%s: names %s, a bench/-only shim (ROADMAP item 14); call its context-taking entry", fset.Position(n.Pos()), name)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && slices.Contains(shims[imports[id.Name]], x.Sel.Name) {
					report(x, id.Name+"."+x.Sel.Name)
				}
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if slices.Contains(own, x.Name) {
					report(x, x.Name)
				}
			}
			return true
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Recv == nil && slices.Contains(own, fd.Name.Name) {
					continue // a shim's own declaration
				}
				ast.Inspect(fd.Type, visit)
				if fd.Body != nil {
					ast.Inspect(fd.Body, visit)
				}
				continue
			}
			ast.Inspect(decl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
