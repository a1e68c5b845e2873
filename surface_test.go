package repro_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
