package main_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// errorChecked lists the packages whose non-test files may not throw an
// error away: the simulated OS and everything that runs on it.
var errorChecked = []string{
	"hpmp/internal/kernel",
	"hpmp/internal/miniredis",
	"hpmp/internal/workloads",
}

// TestNoDroppedErrors fails on a call statement (plain, go or defer) or an
// assignment to _ that discards an error result in a non-test file of an
// errorChecked package. A simulated access that failed silently leaves a
// workload computing on zeros and reporting a wrong checksum with a nil
// error, so every error must be returned, recorded or handled.
//
// The packages are type-checked against the compiler's export data for
// their imports (go list -export), which is much faster than type-checking
// the imports from source.
func TestNoDroppedErrors(t *testing.T) {
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}"}, errorChecked...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	exports := map[string]string{} // import path -> export data file
	dirs := map[string]string{}
	files := map[string][]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 4 {
			t.Fatalf("go list: unexpected line %q", sc.Text())
		}
		exports[f[0]], dirs[f[0]], files[f[0]] = f[1], f[2], strings.Fields(f[3])
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	errType := types.Universe.Lookup("error").Type()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dropped []string
	for _, pkg := range errorChecked {
		var syntax []*ast.File
		for _, name := range files[pkg] {
			f, err := parser.ParseFile(fset, filepath.Join(dirs[pkg], name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			syntax = append(syntax, f)
		}
		if len(syntax) == 0 {
			t.Fatalf("%s: no Go files", pkg)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(pkg, fset, syntax, info); err != nil {
			t.Fatalf("type-checking %s: %v", pkg, err)
		}
		// results returns the value types an expression yields.
		results := func(e ast.Expr) []types.Type {
			tv, ok := info.Types[e]
			if !ok || tv.Type == nil {
				return nil
			}
			if tup, ok := tv.Type.(*types.Tuple); ok {
				ts := make([]types.Type, tup.Len())
				for i := range ts {
					ts[i] = tup.At(i).Type()
				}
				return ts
			}
			return []types.Type{tv.Type}
		}
		hasError := func(ts []types.Type) bool {
			for _, typ := range ts {
				if types.Identical(typ, errType) {
					return true
				}
			}
			return false
		}
		report := func(n ast.Node, what string) {
			pos := fset.Position(n.Pos())
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = rel
			}
			dropped = append(dropped, pos.String()+": "+what)
		}
		for _, f := range syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.ExprStmt:
					if call, ok := s.X.(*ast.CallExpr); ok && hasError(results(call)) {
						report(s, "call discards its error")
					}
				case *ast.GoStmt:
					if hasError(results(s.Call)) {
						report(s, "go statement discards its error")
					}
				case *ast.DeferStmt:
					if hasError(results(s.Call)) {
						report(s, "deferred call discards its error")
					}
				case *ast.AssignStmt:
					var rhs []types.Type
					if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
						rhs = results(s.Rhs[0])
					} else {
						for _, e := range s.Rhs {
							rhs = append(rhs, results(e)...)
						}
					}
					for i, l := range s.Lhs {
						if id, ok := l.(*ast.Ident); ok && id.Name == "_" && i < len(rhs) && types.Identical(rhs[i], errType) {
							report(s, "error assigned to _")
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(dropped)
	for _, d := range dropped {
		t.Error(d)
	}
}
