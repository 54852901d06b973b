package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDisc enforces the repo's lock discipline at lint time. Struct fields
// annotated
//
//	//depburst:guardedby <mu>
//
// (where <mu> names a sibling sync.Mutex / sync.RWMutex field, or "Mutex" /
// "RWMutex" for an embedded one) may only be read or written while the named
// mutex is held: a Lock/RLock call on the same base expression lexically
// dominates the access in the enclosing statement list, with defer-Unlock
// recognised as keeping the lock to function end. Helper methods the caller
// invokes with the lock already held are annotated
//
//	//depburst:locked <mu>
//
// and analyzed as if the receiver's mutex were held on entry. Writes made
// while only an RLock is held are flagged separately — an RWMutex read lock
// does not license mutation.
//
// The analysis is lexical: lock state is followed through the statement
// list in source order, branch-local lock/unlock pairs are assumed balanced
// or terminal (a branch that unlocks and returns does not release the
// fall-through path), and closures and go statements start with no locks
// held. Accesses through a local variable freshly allocated in the same
// function (`s := &Server{...}`) are exempt: the value has not escaped yet,
// so construction needs no lock.
var LockDisc = &Analyzer{
	Name: "lockdisc",
	Doc:  "//depburst:guardedby fields must only be accessed under their mutex",
	Run:  runLockDisc,
}

// lockState is how a mutex is currently held on the lexical path.
type lockState uint8

const (
	lockNone lockState = iota
	lockRead
	lockWrite
)

// guardedField records one //depburst:guardedby annotation: the field object
// and the name of the sibling mutex that guards it.
type guardedField struct {
	mu string
}

// collectGuarded indexes every annotated struct field in the package and
// validates that the named mutex exists as a sibling field of a sync mutex
// type. Invalid annotations are reported immediately: a guard that cannot be
// checked is worse than none.
func collectGuarded(p *Pass) map[*types.Var]guardedField {
	out := make(map[*types.Var]guardedField)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := guardedByName(field)
				if !ok {
					continue
				}
				if !structHasMutex(p.Pkg.Info, st, mu) {
					p.Reportf(field.Pos(), "name a sibling sync.Mutex/RWMutex field (or \"Mutex\" for an embedded one)",
						"//depburst:guardedby names %q, which is not a mutex field of this struct", mu)
					continue
				}
				for _, name := range field.Names {
					if obj, ok := p.Pkg.Info.Defs[name].(*types.Var); ok {
						out[obj] = guardedField{mu: mu}
					}
				}
			}
			return true
		})
	}
	return out
}

// guardedByName extracts the mutex name from a field's //depburst:guardedby
// directive (doc comment or trailing line comment).
func guardedByName(field *ast.Field) (string, bool) {
	for _, grp := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if grp == nil {
			continue
		}
		for _, c := range grp.List {
			if rest, ok := strings.CutPrefix(c.Text, directiveGuardedBy); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					return fields[0], true
				}
			}
		}
	}
	return "", false
}

// structHasMutex reports whether the struct type syntax declares a field
// named mu (or embeds a mutex whose type name is mu) of a sync mutex type.
func structHasMutex(info *types.Info, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		t := info.TypeOf(field.Type)
		if t == nil || !isSyncMutexType(t) {
			continue
		}
		if len(field.Names) == 0 {
			// Embedded: the implicit name is the type name.
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == mu {
				return true
			}
			continue
		}
		for _, name := range field.Names {
			if name.Name == mu {
				return true
			}
		}
	}
	return false
}

// isSyncMutexType matches sync.Mutex and sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockCall classifies a call expression as a mutex operation, returning the
// canonical key of the mutex it operates on ("s.mu", "s.flights.Mutex") and
// the operation. ok is false for anything that is not a sync mutex method.
func lockCall(info *types.Info, call *ast.CallExpr) (key string, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	selection, isSel := info.Selections[sel]
	if !isSel {
		return "", "", false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	base := exprKey(sel.X)
	if base == "" {
		return "", "", false
	}
	// A promoted method call (s.flights.Lock() with an embedded Mutex)
	// resolves through field embeddings; append the embedded field names so
	// the key matches the //depburst:guardedby spelling.
	recvT := selection.Recv()
	index := selection.Index()
	for _, fi := range index[:len(index)-1] {
		st, isStruct := recvT.Underlying().(*types.Struct)
		if !isStruct {
			if ptr, isPtr := recvT.Underlying().(*types.Pointer); isPtr {
				st, isStruct = ptr.Elem().Underlying().(*types.Struct)
			}
			if !isStruct {
				return "", "", false
			}
		}
		f := st.Field(fi)
		base += "." + f.Name()
		recvT = f.Type()
	}
	return base, sel.Sel.Name, true
}

// guardedAccess is one use of a guarded field found during the walk.
type guardedAccess struct {
	sel   *ast.SelectorExpr // x.f
	field *types.Var
	write bool
	// need is the canonical key of the mutex that must be held.
	need string
}

func runLockDisc(p *Pass) {
	guarded := collectGuarded(p)
	if len(guarded) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(map[string]lockState)
			for _, mu := range lockedDirectives(fd) {
				if key := recvLockKey(p.Pkg.Info, fd, mu); key != "" {
					held[key] = lockWrite
				}
			}
			w := &lockWalker{p: p, guarded: guarded, fresh: freshLocals(p.Pkg.Info, fd.Body)}
			w.walkBlock(fd.Body.List, held)
		}
	}
}

// lockedDirectives returns the mutex names a //depburst:locked annotation
// asserts the caller holds.
func lockedDirectives(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directiveLocked); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				out = append(out, fields[0])
			}
		}
	}
	return out
}

// recvLockKey maps a //depburst:locked mutex name onto the canonical key for
// this method's receiver ("m" + "." + "mu" -> "m.mu").
func recvLockKey(info *types.Info, fd *ast.FuncDecl, mu string) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name + "." + mu
}

// freshLocals collects local variables bound to freshly-allocated values
// (`x := T{...}`, `x := &T{...}`, `x := new(T)`): accesses through them are
// pre-publication initialization and need no lock.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CompositeLit:
				fresh[obj] = true
			case *ast.UnaryExpr:
				if rhs.Op == token.AND {
					if _, isLit := rhs.X.(*ast.CompositeLit); isLit {
						fresh[obj] = true
					}
				}
			case *ast.CallExpr:
				if isBuiltin(info, rhs, "new") {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// lockWalker carries one function's lexical lock analysis.
type lockWalker struct {
	p       *Pass
	guarded map[*types.Var]guardedField
	fresh   map[types.Object]bool
}

// walkBlock processes a statement list in source order, threading the held
// set through it. Compound statements recurse with a copy: branch-local
// effects are assumed balanced or terminal.
func (w *lockWalker) walkBlock(stmts []ast.Stmt, held map[string]lockState) {
	for _, stmt := range stmts {
		w.walkStmt(stmt, held)
	}
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held map[string]lockState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, op, ok := lockCall(w.p.Pkg.Info, call); ok {
				switch op {
				case "Lock":
					held[key] = lockWrite
				case "RLock":
					if held[key] == lockNone {
						held[key] = lockRead
					}
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; a deferred
		// closure runs after the body, so it is analyzed lock-free.
		if _, _, ok := lockCall(w.p.Pkg.Info, s.Call); ok {
			return
		}
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkBlock(fl.Body.List, make(map[string]lockState))
			for _, arg := range s.Call.Args {
				w.checkExpr(arg, held)
			}
			return
		}
		w.checkExpr(s.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the spawner's locks.
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkBlock(fl.Body.List, make(map[string]lockState))
			for _, arg := range s.Call.Args {
				w.checkExpr(arg, held)
			}
			return
		}
		w.checkExpr(s.Call, held)
	case *ast.BlockStmt:
		w.walkBlock(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		w.walkBlock(s.Body.List, cloneHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		inner := cloneHeld(held)
		if s.Post != nil {
			w.walkStmt(s.Post, inner)
		}
		w.walkBlock(s.Body.List, inner)
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		w.walkBlock(s.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			inner := cloneHeld(held)
			for _, e := range cc.List {
				w.checkExpr(e, inner)
			}
			w.walkBlock(cc.Body, inner)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			w.walkBlock(c.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := cloneHeld(held)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, inner)
			}
			w.walkBlock(cc.Body, inner)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	default:
		if stmt != nil {
			w.checkNode(stmt, held)
		}
	}
}

func cloneHeld(held map[string]lockState) map[string]lockState {
	out := make(map[string]lockState, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// checkExpr checks every guarded-field access in an expression against the
// current held set. Nested func literals start lock-free.
func (w *lockWalker) checkExpr(e ast.Expr, held map[string]lockState) {
	if e == nil {
		return
	}
	w.checkNode(e, held)
}

// checkNode inspects a subtree for guarded accesses. Nested func literals
// passed directly as call arguments (sort.Search/sort.Slice comparators and
// the like) run synchronously inside the call, so they inherit the held
// set; every other literal — assigned, returned, stored — may run after the
// lock is released and starts lock-free.
func (w *lockWalker) checkNode(n ast.Node, held map[string]lockState) {
	var stack []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch c := c.(type) {
		case *ast.FuncLit:
			inner := make(map[string]lockState)
			if callArgLit(stack, c) {
				inner = cloneHeld(held)
			}
			w.walkBlock(c.Body.List, inner)
			return false // children handled; Inspect skips the closing nil
		case *ast.SelectorExpr:
			if acc, ok := w.accessOf(c); ok {
				w.report(acc, held)
			}
		}
		stack = append(stack, c)
		return true
	})
}

// callArgLit reports whether the func literal sits directly in a call's
// argument list (or is itself immediately invoked), given the ancestor
// stack of the enclosing expression walk.
func callArgLit(stack []ast.Node, lit *ast.FuncLit) bool {
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return false
	}
	call, ok := stack[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	if ast.Unparen(call.Fun) == lit {
		return true
	}
	for _, arg := range call.Args {
		if ast.Unparen(arg) == lit {
			return true
		}
	}
	return false
}

// accessOf resolves a selector to a guarded-field access, classifying it as
// read or write from its syntactic context.
func (w *lockWalker) accessOf(sel *ast.SelectorExpr) (guardedAccess, bool) {
	obj, ok := w.p.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return guardedAccess{}, false
	}
	g, ok := w.guarded[obj]
	if !ok {
		return guardedAccess{}, false
	}
	base := exprKey(sel.X)
	if base == "" {
		return guardedAccess{}, false
	}
	if w.fresh[rootObject(w.p.Pkg.Info, sel.X)] {
		return guardedAccess{}, false
	}
	return guardedAccess{
		sel:   sel,
		field: obj,
		need:  base + "." + g.mu,
	}, true
}

// rootObject resolves the leftmost identifier of a selector chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// report files the diagnostic for an access made without the required lock.
func (w *lockWalker) report(acc guardedAccess, held map[string]lockState) {
	write := w.isWrite(acc.sel)
	switch held[acc.need] {
	case lockWrite:
		return
	case lockRead:
		if !write {
			return
		}
		w.p.Reportf(acc.sel.Pos(), "upgrade to "+acc.need+".Lock() — an RLock does not license writes",
			"write to %s guarded by %s under RLock only", acc.field.Name(), acc.need)
		return
	}
	verb := "read of"
	if write {
		verb = "write to"
	}
	w.p.Reportf(acc.sel.Pos(), "hold "+acc.need+".Lock() (or annotate the helper //depburst:locked "+muNameOf(acc.need)+")",
		"%s %s guarded by %s without holding the lock", verb, acc.field.Name(), acc.need)
}

// muNameOf extracts the mutex field name from a canonical key.
func muNameOf(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// isWrite classifies the selector's use: assignment target, inc/dec operand,
// or address-taken (a pointer escape licenses arbitrary mutation).
func (w *lockWalker) isWrite(sel *ast.SelectorExpr) bool {
	parent := w.parentOf(sel)
	switch p := parent.(type) {
	case *ast.CallExpr:
		return isBuiltin(w.p.Pkg.Info, p, "delete") && len(p.Args) > 0 && ast.Unparen(p.Args[0]) == sel
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == sel {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(p.X) == sel
	case *ast.UnaryExpr:
		return p.Op == token.AND && ast.Unparen(p.X) == sel
	case *ast.IndexExpr:
		// s.m[k] = v / s.m[k]++ : indexing is a write when the index
		// expression itself is the assignment target.
		if ast.Unparen(p.X) == sel {
			return w.indexWritten(p)
		}
	}
	return false
}

// indexWritten reports whether an index expression over the guarded field is
// itself assigned (map/slice element write) or deleted from.
func (w *lockWalker) indexWritten(idx *ast.IndexExpr) bool {
	switch p := w.parentOf(idx).(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == idx {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(p.X) == idx
	case *ast.UnaryExpr:
		return p.Op == token.AND && ast.Unparen(p.X) == idx
	}
	return false
}

// parentOf finds the immediate parent node of target within the package
// syntax. Parent lookups are rare (only on guarded accesses), so a targeted
// walk is cheap enough.
func (w *lockWalker) parentOf(target ast.Node) ast.Node {
	var parent ast.Node
	for _, f := range w.p.Pkg.Files {
		if target.Pos() < f.Pos() || target.Pos() > f.End() {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if parent != nil {
				return false
			}
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if n == target && len(stack) > 0 {
				for i := len(stack) - 1; i >= 0; i-- {
					if _, ok := stack[i].(*ast.ParenExpr); ok {
						continue
					}
					parent = stack[i]
					break
				}
				return false
			}
			stack = append(stack, n)
			return true
		})
		if parent != nil {
			break
		}
	}
	return parent
}

// Also checked by lockdisc: calls to functions annotated //depburst:locked
// are trusted, not verified — the annotation documents a caller contract
// that code review checks.
