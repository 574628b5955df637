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

// keptUnreached lists exported functions and methods under internal/,
// keyed by package path, receiver type and name, that no non-test code
// uses but that stay on purpose.
var keptUnreached = map[string]string{
	// Accessors that show tests state no live API shows.
	"hpmp/internal/phys.FrameAllocator.Allocated": "live frames of an allocator",
	"hpmp/internal/phys.FrameAllocator.Region":    "the range a pool draws from, which enclave frames must stay inside",
	"hpmp/internal/phys.Memory.TouchedFrames":     "frames a run materialized",
	"hpmp/internal/pmpt.Table.TablePages":         "pages a permission table occupies",
	"hpmp/internal/mmu.MMU.Translate":             "side-effect-free VA-to-PA lookup",
	"hpmp/internal/kernel.Process.MappedPages":    "pages a process materialized",
	"hpmp/internal/kernel.Kernel.NumProcesses":    "live process count",
	"hpmp/internal/kernel.Process.IsEnclave":      "whether a process runs in an enclave",
	"hpmp/internal/monitor.Monitor.NumDomains":    "live domain count",
	"hpmp/internal/virt.GuestTable.PTHostPages":   "host frames behind the guest PT pages",
	"hpmp/internal/miniredis.Server.HGet":         "reads back HSET",
	"hpmp/internal/miniredis.Server.LLen":         "reads back RPUSH/LPUSH",
	"hpmp/internal/miniredis.Server.SCard":        "reads back SADD",

	// Oracles and fixtures the tests check live code against.
	"hpmp/internal/pmpt.Table.LookupSW": "software walk the hardware walker is checked against",
	"hpmp/internal/perm.Access.Need":    "the access-to-bit spec Perm.Allows is checked against",
	"hpmp/internal/pmp.Unit.Check":      "base PMP check the HPMP segment path is checked against",
	"hpmp/internal/pmpt.SplitOffset":    "Figure 6-e offset split the table tests index with",
	"hpmp/internal/pt.Table.MapSuper":   "builds superpage leaves for the walkers' superpage tests",
	"hpmp/internal/pmp.Unit.SetTOR":     "TOR entries, part of the PMP matching the pmp tests cover",
	"hpmp/internal/obs.Tracer.Events":   "the retained ring as one slice, which tests compare and replay; production streams it with Each",
}

// calledByStd names the standard-library interfaces whose methods the
// standard library calls on values the module hands it: fmt and log
// print errors and Stringers, encoding/json marshals and unmarshals.
var calledByStd = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// TestExportedAPIsAreReached fails on an exported function or method,
// declared in a non-test file under internal/, that no non-test code of
// the module (examples included) or of cmd/hpmpbench uses: production code
// nothing reaches, kept alive only by its own tests.
//
// Uses are resolved by type, so a dead method does not pass because a live
// method of another type shares its name. A method counts as used when it
// implements a method of an interface that is used, or of one in
// calledByStd.
func TestExportedAPIsAreReached(t *testing.T) {
	fset, pkgs := typeCheckModule(t)
	used := map[string]bool{}
	ifaceMethods := map[string][]*types.Interface{} // method name -> used interfaces declaring it
	for _, cp := range pkgs {
		for _, obj := range cp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], iface)
					continue
				}
			}
			used[funcKey(fn)] = true
		}
	}
	for _, c := range calledByStd {
		scope := types.Universe
		if c.pkg != "" {
			p, err := stdImporter.Import(c.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(c.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			ifaceMethods[name] = append(ifaceMethods[name], iface)
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if _, ok := typ.(*types.Pointer); !ok {
			typ = types.NewPointer(typ) // *T has T's methods too
		}
		for _, iface := range ifaceMethods[fn.Name()] {
			if types.Implements(typ, iface) {
				return true
			}
		}
		return false
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var dead []string
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.path, "hpmp/internal/") {
			continue
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || !decl.Name.IsExported() {
					continue
				}
				fn := cp.info.Defs[decl.Name].(*types.Func)
				key := funcKey(fn)
				declared[key] = true
				if used[key] || implements(fn) {
					if keptUnreached[key] != "" {
						t.Errorf("allowlisted %s is now reached from production code: drop it from keptUnreached", key)
					}
					continue
				}
				if keptUnreached[key] == "" {
					pos := fset.Position(decl.Pos())
					if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
						pos.Filename = rel
					}
					dead = append(dead, key+" ("+pos.String()+")")
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but reached only from tests: %s", d)
	}
	for key := range keptUnreached {
		if !declared[key] {
			t.Errorf("allowlisted %s is no longer declared under internal/: drop it from keptUnreached", key)
		}
	}
}

// funcKey names a function or method by its package path, receiver type
// (for a method) and name, e.g. "hpmp/internal/phys.FrameAllocator.Allocated".
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := ""
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}
