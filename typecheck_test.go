package main_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// checkedPackage is one non-test package of the module (or of
// cmd/hpmpbench, a module of its own), parsed and type-checked from source.
type checkedPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
}

var (
	loadOnce    sync.Once
	loadFset    = token.NewFileSet()
	loadedPkgs  []*checkedPackage
	stdImporter types.Importer
	loadErr     error
)

// typeCheckModule returns every non-test package of the module and of
// cmd/hpmpbench, in dependency order, type-checked once per test binary.
// The packages are checked from source against each other, so an object
// is the same *types.Func wherever it is used; the standard library comes
// from the compiler's export data (go list -export), which is much faster
// than checking it from source.
func typeCheckModule(t *testing.T) (*token.FileSet, []*checkedPackage) {
	t.Helper()
	loadOnce.Do(func() { loadErr = loadModule() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loadFset, loadedPkgs
}

func loadModule() error {
	type listed struct {
		dir   string
		files []string
		std   bool
	}
	exports := map[string]string{} // import path -> export data file
	pkgs := map[string]listed{}
	var order []string // dependencies before their dependents
	for _, mod := range []struct{ dir, pattern string }{{".", "./..."}, {"cmd/hpmpbench", "."}} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f",
			"{{.ImportPath}}\t{{.Export}}\t{{.Standard}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", mod.pattern)
		cmd.Dir = mod.dir
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list in %s: %v", mod.dir, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Split(sc.Text(), "\t")
			if len(f) != 5 {
				return fmt.Errorf("go list: unexpected line %q", sc.Text())
			}
			if _, seen := pkgs[f[0]]; seen {
				continue
			}
			exports[f[0]] = f[1]
			pkgs[f[0]] = listed{dir: f[3], files: strings.Fields(f[4]), std: f[2] == "true"}
			order = append(order, f[0])
		}
	}
	stdImporter = importer.ForCompiler(loadFset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return stdImporter.Import(path)
	})}
	for _, path := range order {
		l := pkgs[path]
		if l.std || len(l.files) == 0 {
			continue
		}
		cp := &checkedPackage{path: path, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range l.files {
			f, err := parser.ParseFile(loadFset, filepath.Join(l.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			cp.files = append(cp.files, f)
		}
		pkg, err := conf.Check(path, loadFset, cp.files, cp.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %v", path, err)
		}
		checked[path] = pkg
		loadedPkgs = append(loadedPkgs, cp)
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
