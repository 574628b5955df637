package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnreached lists exported functions and methods under internal/ that
// no production file calls by name but that stay on purpose.
var keptUnreached = map[string]string{
	// Accessors tests inspect state through.
	"Allocated":     "phys: live frames of an allocator",
	"TouchedFrames": "phys: frames a run materialized",
	"TablePages":    "pmpt: pages a permission table occupies",
	"Translate":     "mmu: side-effect-free VA-to-PA lookup",
	"MappedPages":   "kernel: pages a process materialized",
	"NumProcesses":  "kernel: live process count",
	"IsEnclave":     "kernel: whether a process runs in an enclave",
	"NumDomains":    "monitor: live domain count",
	"PTHostPages":   "virt: host frames behind the guest PT pages",
	"HGet":          "miniredis: reads back HSET",
	"LLen":          "miniredis: reads back RPUSH/LPUSH",
	"SCard":         "miniredis: reads back SADD",
	"Contains":      "cache: Cache.Contains, line presence without touching LRU or counters",

	// Oracles and fixtures the tests check live code against.
	"LookupSW":    "pmpt: software walk the hardware walker is checked against",
	"Need":        "perm: the access-to-bit spec Perm.Allows is checked against",
	"SplitOffset": "pmpt: Figure 6-e offset split the table tests index with",
	"MapSuper":    "pt: builds superpage leaves for the walkers' superpage tests",
	"SetTOR":      "pmp: TOR entries, part of the PMP matching the pmp tests cover",
	"HashBlock":   "merkle: leaf hash the integrity tests recompute",
	"Mounted":     "merkle: subtree mount state",
	"NumBlocks":   "merkle: protected block count",

	// Called through an interface from outside the module.
	"MarshalJSON":   "json.Marshaler",
	"UnmarshalJSON": "json.Unmarshaler",
}

// TestExportedAPIsAreReached fails on an exported function or method,
// declared in a non-test file under internal/, whose name no non-test file
// of the module or of cmd/hpmpbench mentions: production code nothing
// reaches, kept alive only by its own tests.
//
// The check matches on names only. A dead method that shares its name with
// a live one (Lock, Touch) passes it, so deleting such a method still needs
// a human reviewer.
func TestExportedAPIsAreReached(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> "file:line" of each declaration
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fn.Name] = true
			if fn.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				declared[fn.Name.Name] = append(declared[fn.Name.Name], fset.Position(fn.Pos()).String())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no exported functions found under internal/: run from the module root")
	}
	var dead []string
	for name, sites := range declared {
		if !used[name] && keptUnreached[name] == "" {
			dead = append(dead, name+" ("+strings.Join(sites, ", ")+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but reached only from tests: %s", d)
	}
	for name := range keptUnreached {
		if declared[name] == nil {
			t.Errorf("allowlisted %s is no longer declared under internal/: drop it from keptUnreached", name)
		} else if used[name] && len(declared[name]) == 1 {
			// A name declared more than once (Contains) is reached through
			// any of its declarations; its entry speaks for the one its
			// reason names.
			t.Errorf("allowlisted %s is now reached from production code: drop it from keptUnreached", name)
		}
	}
}
