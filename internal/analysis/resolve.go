package analysis

import (
	"go/ast"
	"go/types"
)

// calleeOf statically resolves a call expression to the function or method
// it invokes. Calls through function values, interfaces the type checker
// cannot devirtualise, and type conversions resolve to nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is declared in the package with the given
// import path.
func isPkgFunc(fn *types.Func, pkgPath string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// isBuiltin reports whether call invokes the named builtin (append, delete,
// make, new, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isConversion reports whether call is a type conversion, returning the
// target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// exprKey renders simple receiver expressions (r, m.reg, s.cfg.Metrics) for
// structural comparison; unrepresentable shapes yield "".
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprKey(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

// pointerShaped reports whether values of t are stored directly in an
// interface word, so converting them to an interface does not allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// funcDisplayName renders a function for diagnostics: "(*Core).Run" for
// methods, "New" for package functions.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	name := ""
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
		name = "*"
	}
	if n, ok := rt.(*types.Named); ok {
		name += n.Obj().Name()
	} else {
		name += rt.String()
	}
	return "(" + name + ")." + fn.Name()
}
