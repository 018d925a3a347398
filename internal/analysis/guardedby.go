package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// guardedby enforces `//texlint:guards <mutex>` field annotations: a field
// so annotated may only be read with its protecting mutex read- or
// write-held and only written with it write-held. The check is
// whole-program — a method called only with the lock held (per the
// entry-held fixpoint) may touch guarded fields without locking locally.
//
// Allowances, in decreasing order of frequency:
//   - constructor/pre-publication: accesses through a local variable bound
//     to a freshly composed value (`v := &T{...}`, `var v T`, `new(T)`)
//     that has not escaped yet are unguarded by construction;
//   - sync/atomic call arguments are skipped by the walker (atomic fields
//     carry their own ordering);
//   - accesses inside function literals fall back to locally held locks
//     only (the literal's execution context is unknown), so a closure that
//     locks correctly still passes.
func NewGuardedBy() *Analyzer {
	return &Analyzer{
		Name: "guardedby",
		Doc:  "enforce //texlint:guards field annotations: guarded fields only reachable with the protecting mutex held",
		Run:  runGuardedBy,
	}
}

// guardInfo binds one struct field to its protecting mutex class.
type guardInfo struct {
	mutexClass string // lock class of the guard, e.g. "pkg.Engine.mu"
	mutexName  string // field name of the guard, for messages
}

func runGuardedBy(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: prog.Fset.Position(pos), Check: "guardedby",
			Message: fmt.Sprintf(format, args...),
		})
	}

	guards := collectGuards(prog, report)
	if len(guards) == 0 {
		return diags
	}

	entry := prog.entryHeld()

	// Deterministic order over functions.
	fns := make([]*types.Func, 0, len(prog.Funcs))
	for fn := range prog.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	for _, fn := range fns {
		fi := prog.Funcs[fn]
		fresh := freshLocals(fi)
		ent := entry[fn]
		v := &lockVisitor{
			info: fi.Pkg.Info,
			onAccess: func(sel *ast.SelectorExpr, field *types.Var, write bool, held heldSet, inLit bool) {
				g, guarded := guards[field]
				if !guarded {
					return
				}
				if rootIsFresh(fi.Pkg.Info, sel.X, fresh) {
					return // pre-publication construction
				}
				if holdsGuard(g.mutexClass, write, held, ent, inLit) {
					return
				}
				verb := "read"
				need := "(R)Lock"
				if write {
					verb = "written"
					need = "Lock"
				}
				report(sel.Sel.Pos(), "%s.%s is %s without %s held (field is //texlint:guards %s); lock it, or make every caller hold it",
					fieldOwnerName(field), field.Name(), verb, g.mutexName+"."+need, g.mutexName)
			},
		}
		v.walkBody(fi.Decl.Body)
	}
	return diags
}

// holdsGuard reports whether the guard class is held with sufficient
// strength: writes need the write half, reads accept either half.
func holdsGuard(class string, write bool, held heldSet, ent map[string]entryInfo, inLit bool) bool {
	if h, ok := held[class]; ok {
		return !write || h.kind == 'W'
	}
	if inLit {
		return false
	}
	if info, ok := ent[class]; ok {
		return !write || info.kind == 'W'
	}
	return false
}

// collectGuards parses every //texlint:guards field annotation in the
// program, validating that the named guard is a sibling sync.Mutex or
// sync.RWMutex field. It returns a map from the guarded *types.Var to its
// binding.
func collectGuards(prog *Program, report func(pos token.Pos, format string, args ...any)) map[*types.Var]guardInfo {
	guards := make(map[*types.Var]guardInfo)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				typeObj, ok := pkg.Info.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				class := typeObj.Pkg().Path() + "." + typeObj.Name()

				// Index sibling fields by name for guard validation.
				fieldByName := make(map[string]*ast.Field)
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fieldByName[name.Name] = fld
					}
				}

				for _, fld := range st.Fields.List {
					mutexName := guardsDirectiveOn(fld)
					if mutexName == "" {
						continue
					}
					if len(fld.Names) == 0 {
						report(fld.Pos(), "texlint:guards on an embedded field is not supported; name the field")
						continue
					}
					guardFld, ok := fieldByName[mutexName]
					if !ok {
						report(fld.Pos(), "texlint:guards names %q, but %s has no such field", mutexName, ts.Name.Name)
						continue
					}
					if tv, ok := pkg.Info.Info.Types[guardFld.Type]; !ok || !isSyncMutexType(tv.Type) {
						report(fld.Pos(), "texlint:guards %s: %s.%s is not a sync.Mutex or sync.RWMutex", mutexName, ts.Name.Name, mutexName)
						continue
					}
					for _, name := range fld.Names {
						if obj, ok := pkg.Info.Info.Defs[name].(*types.Var); ok {
							guards[obj] = guardInfo{
								mutexClass: class + "." + mutexName,
								mutexName:  mutexName,
							}
						}
					}
				}
				return true
			})
		}
	}
	return guards
}

// guardsDirectiveOn returns the mutex name of a //texlint:guards directive
// in the field's doc or line comment, or "".
func guardsDirectiveOn(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if directiveIs(c.Text, guardsPrefix) {
				arg := strings.TrimSpace(strings.TrimPrefix(c.Text, guardsPrefix))
				if i := strings.IndexAny(arg, " \t"); i >= 0 {
					arg = arg[:i]
				}
				return arg
			}
		}
	}
	return ""
}

// fieldOwnerName renders the owning struct's name for messages.
func fieldOwnerName(field *types.Var) string {
	// The field's parent scope does not name the struct; walk the package
	// scope for a named type whose underlying struct contains the field.
	if pkg := field.Pkg(); pkg != nil {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == field {
					return tn.Name()
				}
			}
		}
	}
	return "struct"
}

// freshLocals collects local variables bound to freshly composed values —
// `v := &T{...}`, `v := T{...}`, `v := new(T)`, `var v T` — whose guarded
// fields are pre-publication and therefore exempt. Assigning the variable
// anywhere else (aliasing an existing value) removes the exemption; being
// passed to a call or stored does not, matching the constructor pattern
// where the value is composed and then returned.
func freshLocals(fi *FuncInfo) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	unfresh := make(map[*types.Var]bool)
	mark := func(lhs ast.Expr, isFresh bool) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj, ok := fi.Pkg.Info.Info.Defs[id].(*types.Var)
		if !ok {
			if obj, ok2 := fi.Pkg.Info.Info.Uses[id].(*types.Var); ok2 {
				if !isFresh {
					unfresh[obj] = true
				}
				return
			}
			return
		}
		if isFresh {
			fresh[obj] = true
		} else {
			unfresh[obj] = true
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					mark(lhs, isFreshExpr(n.Rhs[i]))
				} else if len(n.Rhs) == 1 {
					mark(lhs, false)
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, name := range n.Names {
					mark(name, true) // var v T: zero value, unpublished
				}
				return true
			}
			for i, name := range n.Names {
				if i < len(n.Values) {
					mark(name, isFreshExpr(n.Values[i]))
				}
			}
		}
		return true
	})
	for obj := range unfresh {
		delete(fresh, obj)
	}
	return fresh
}

// isFreshExpr reports whether an expression composes a brand-new value.
func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// rootIsFresh reports whether the base of a selector spine is a fresh
// (pre-publication) local.
func rootIsFresh(info *PackageInfo, e ast.Expr, fresh map[*types.Var]bool) bool {
	if len(fresh) == 0 {
		return false
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj, ok := info.Info.Uses[x].(*types.Var)
			if !ok {
				obj, ok = info.Info.Defs[x].(*types.Var)
			}
			return ok && fresh[obj]
		default:
			return false
		}
	}
}
