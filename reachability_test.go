package main_test

import (
	"go/ast"
	"go/token"
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

// keptUnread lists fields under internal/, keyed by package path, type and
// field name, or by package path and type for every field of the type,
// that no non-test code reads but that stay on purpose.
var keptUnread = map[string]string{
	"hpmp/internal/pmp.Result": "result of pmp.Unit.Check, the oracle kept in keptUnreached",
}

// TestStructFieldsAreRead fails on a field, declared in a non-test file
// under internal/, that no non-test code of the module (examples included)
// or of cmd/hpmpbench reads: state every access pays to keep and no output
// shows.
//
// An assignment's left side, an increment or decrement, and a composite
// literal's key write a field; every other use reads it. Fields of a
// generic type are resolved to the generic declaration. Three kinds of
// field count as read without a use: embedded fields, read through what
// they promote; fields with a struct tag, read by encoding/json; and the
// fields of a struct used as a map key, read by every lookup.
func TestStructFieldsAreRead(t *testing.T) {
	fset, pkgs := typeCheckModule(t)
	read := map[*types.Var]bool{}
	var readAll func(typ types.Type)
	readAll = func(typ types.Type) {
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i).Origin(); !read[f] {
				read[f] = true
				readAll(f.Type())
			}
		}
	}
	for _, cp := range pkgs {
		written := map[*ast.Ident]bool{}
		lhs := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				written[sel.Sel] = true
			}
		}
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						lhs(l)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range cp.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
		for _, tv := range cp.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(m.Key())
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var unread []string
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.path, "hpmp/internal/") {
			continue
		}
		for _, f := range cp.files {
			owners := map[*ast.StructType]string{} // struct type -> key prefix
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owners[st] = cp.path + "." + n.Name.Name
					}
				case *ast.StructType:
					owner, ok := owners[n]
					if !ok {
						owner = cp.path + ".struct{…}"
					}
					declared[owner] = true
					for _, fld := range n.Fields.List {
						for _, name := range fld.Names {
							ast.Inspect(fld.Type, func(m ast.Node) bool {
								if st, ok := m.(*ast.StructType); ok {
									owners[st] = owner + "." + name.Name
								}
								return true
							})
							key := owner + "." + name.Name
							declared[key] = true
							if name.Name == "_" || fld.Tag != nil {
								continue
							}
							isRead := read[cp.info.Defs[name].(*types.Var)]
							kept := keptUnread[key] != "" || keptUnread[owner] != ""
							switch {
							case isRead && keptUnread[key] != "":
								t.Errorf("allowlisted %s is now read by production code: drop it from keptUnread", key)
							case !isRead && !kept:
								pos := fset.Position(name.Pos())
								if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
									pos.Filename = rel
								}
								unread = append(unread, key+" ("+pos.String()+")")
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(declared) == 0 {
		t.Fatal("no struct fields found under internal/")
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("field written but read only by tests: %s", u)
	}
	for key := range keptUnread {
		if !declared[key] {
			t.Errorf("allowlisted %s is no longer declared under internal/: drop it from keptUnread", key)
		}
	}
}

// TestCountersReachASnapshot fails on a stats.Counters field, declared in a
// non-test file under internal/, that non-test code neither passes to
// Merge nor calls Snapshot on: counters that are bumped on every access
// and that no metrics file, table or trace ever shows.
func TestCountersReachASnapshot(t *testing.T) {
	_, pkgs := typeCheckModule(t)
	var counters types.Type
	owners := map[*types.Var]string{} // field -> its struct type's package path and name
	for _, cp := range pkgs {
		for _, obj := range cp.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.Parent() != tn.Pkg().Scope() {
				continue
			}
			if cp.path == "hpmp/internal/stats" && tn.Name() == "Counters" {
				counters = tn.Type()
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owners[st.Field(i)] = cp.path + "." + tn.Name()
				}
			}
		}
	}
	if counters == nil {
		t.Fatal("stats.Counters not found")
	}
	// field returns the stats.Counters field e selects, if it selects one.
	field := func(info *types.Info, e ast.Expr) *types.Var {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() || !types.Identical(v.Type(), counters) {
			return nil
		}
		return v.Origin()
	}
	reached := map[*types.Var]bool{}
	for _, cp := range pkgs {
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch fn, _ := cp.info.Uses[sel.Sel].(*types.Func); {
				case fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "hpmp/internal/stats":
				case fn.Name() == "Snapshot":
					if v := field(cp.info, sel.X); v != nil {
						reached[v] = true
					}
				case fn.Name() == "Merge" && len(call.Args) == 1:
					if v := field(cp.info, call.Args[0]); v != nil {
						reached[v] = true
					}
				}
				return true
			})
		}
	}
	var silent []string
	checked := 0
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.path, "hpmp/internal/") {
			continue
		}
		for _, obj := range cp.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || !types.Identical(v.Type(), counters) {
				continue
			}
			checked++
			if !reached[v] {
				silent = append(silent, owners[v]+"."+v.Name())
			}
		}
	}
	if checked == 0 {
		t.Fatal("no stats.Counters fields found under internal/")
	}
	sort.Strings(silent)
	for _, s := range silent {
		t.Errorf("counters never merged into a snapshot: %s", s)
	}
}
