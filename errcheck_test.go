package main_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
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
func TestNoDroppedErrors(t *testing.T) {
	fset, pkgs := typeCheckModule(t)
	errType := types.Universe.Lookup("error").Type()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dropped []string
	checked := 0
	for _, cp := range pkgs {
		if !slices.Contains(errorChecked, cp.path) {
			continue
		}
		checked++
		info := cp.info
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
		for _, f := range cp.files {
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
	if checked != len(errorChecked) {
		t.Fatalf("type-checked %d of the %d errorChecked packages", checked, len(errorChecked))
	}
	sort.Strings(dropped)
	for _, d := range dropped {
		t.Error(d)
	}
}
