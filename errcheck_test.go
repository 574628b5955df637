package main_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// errorChecked lists the packages whose non-test files may not throw an
// error away: the simulated OS and everything that runs on it, and the
// examples, whose pinned stdout would otherwise show a failed call as a
// zero value.
var errorChecked = []string{
	"hpmp/internal/kernel",
	"hpmp/internal/miniredis",
	"hpmp/internal/workloads",
	"hpmp/examples/...",
}

// errorCheckedPattern returns the errorChecked entry that covers the
// package path, or "". An entry ending in "/..." covers every package
// below it.
func errorCheckedPattern(path string) string {
	for _, p := range errorChecked {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok && strings.HasPrefix(path, prefix+"/") || p == path {
			return p
		}
	}
	return ""
}

// TestNoDroppedErrors fails on a call statement (plain, go or defer) or an
// assignment to _ that discards an error result in a non-test file of an
// errorChecked package. A simulated access that failed silently leaves a
// workload computing on zeros and reporting a wrong checksum with a nil
// error, so every error must be returned, recorded or handled.
//
// fmt.Fprint, Fprintf and Fprintln statements are exempt: a failed write
// shortens a report but computes no wrong number in it.
func TestNoDroppedErrors(t *testing.T) {
	fset, pkgs := typeCheckModule(t)
	errType := types.Universe.Lookup("error").Type()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dropped []string
	matched := map[string]bool{}
	for _, cp := range pkgs {
		pattern := errorCheckedPattern(cp.path)
		if pattern == "" {
			continue
		}
		matched[pattern] = true
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
		// isFprint reports whether call prints with fmt.Fprint, Fprintf or
		// Fprintln.
		isFprint := func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			return ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint")
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
					if call, ok := s.X.(*ast.CallExpr); ok && hasError(results(call)) && !isFprint(call) {
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
	for _, p := range errorChecked {
		if !matched[p] {
			t.Errorf("errorChecked entry %s matched no type-checked package", p)
		}
	}
	sort.Strings(dropped)
	for _, d := range dropped {
		t.Error(d)
	}
}
