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

// deadExportsFile lists the exported top-level identifiers of internal/*
// that nothing outside their own package names, one "internal/pkg.Name"
// a line. It may only shrink: TestNoDeadExports fails on a dead export
// missing from it, on an entry that is no longer dead, and on a list
// longer than deadExportsCap.
const (
	deadExportsFile = "testdata/dead_exports.txt"
	deadExportsCap  = 25
)

// TestNoDeadExports is the guard against exports nobody outside the
// package uses. It parses every Go file of the module and of bench/ —
// tests included — with go/parser, collects each internal package's
// exported top-level functions, types, variables and constants, and
// counts a use wherever another directory's file selects one through
// its import (pkg.Name). A package's own files, its external _test
// package included, do not count.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	exported := map[string]bool{}  // "internal/pkg.Name"
	pkgName := map[string]string{} // "internal/pkg" → package name
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed := make(map[string]*ast.File, len(files))
	for _, p := range files {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed[p] = f
		dir := path.Dir(p)
		if !strings.HasPrefix(dir, "internal/") || strings.HasSuffix(p, "_test.go") {
			continue
		}
		pkgName[dir] = f.Name.Name
		for _, decl := range f.Decls {
			for _, name := range topLevelNames(decl) {
				if ast.IsExported(name) {
					exported[dir+"."+name] = true
				}
			}
		}
	}

	used := map[string]bool{}
	for p, f := range parsed {
		imports := map[string]string{} // local name → "internal/pkg"
		for _, imp := range f.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "repro/")
			if !ok || pkgName[dir] == "" || dir == path.Dir(p) {
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	for id := range exported {
		if !used[id] {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	allow := readAllowlist(t)
	for _, id := range dead {
		if !slices.Contains(allow, id) {
			t.Errorf("%s is exported, but nothing outside its package names it: unexport or delete it", id)
		}
	}
	for _, id := range allow {
		if !slices.Contains(dead, id) {
			t.Errorf("%s is in %s but is no longer a dead export: delete the line", id, deadExportsFile)
		}
	}
	if len(allow) > deadExportsCap {
		t.Errorf("%s has %d entries, more than its cap of %d: the list may only shrink", deadExportsFile, len(allow), deadExportsCap)
	}
}

// topLevelNames returns the names a top-level declaration binds; a
// method binds none.
func topLevelNames(decl ast.Decl) []string {
	var names []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names = append(names, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

func readAllowlist(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(deadExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
