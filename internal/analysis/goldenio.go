package analysis

import (
	"go/ast"
	"go/types"
)

// GoldenIO polices the repo's export surfaces: golden files, metrics exports
// and server documents are diffed byte-for-byte by the determinism walls, so
// their encoded shape must be an explicitly ordered structure. Marshalling a
// map delegates key ordering to the encoder — encoding/json happens to sort,
// but the contract then lives in the encoder instead of the document, and
// any second encoder (the Prometheus writer, a CSV export, a hand-rolled
// fast path) silently diverges.
//
// The analyzer flags json.Marshal / json.MarshalIndent / (*json.Encoder).
// Encode calls whose argument is a map, or a struct carrying a map-typed
// field (transitively through named struct fields, slices and pointers).
// The fix is the one the metrics package already uses: collect keys, sort,
// and emit a slice of key/value structs.
var GoldenIO = &Analyzer{
	Name: "goldenio",
	Doc:  "exported documents must marshal ordered structures, never maps",
	Run:  runGoldenIO,
}

func runGoldenIO(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil || !isMarshalFunc(fn) {
				return true
			}
			at := info.TypeOf(call.Args[0])
			if at == nil {
				return true
			}
			if path, found := findMapIn(at, nil); found {
				p.Reportf(call.Args[0].Pos(), "collect the keys, sort them, and marshal a slice of key/value structs",
					"%s encodes a map (%s); export bytes must come from explicitly ordered structures", fn.Name(), path)
			}
			return true
		})
	}
}

// isMarshalFunc matches the encoding/json entry points whose output can
// become export bytes.
func isMarshalFunc(fn *types.Func) bool {
	if isPkgFunc(fn, "encoding/json") {
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			return true
		}
	}
	return false
}

// findMapIn walks a type looking for a map, descending through pointers,
// slices, arrays and named struct fields. It returns a human-readable path
// to the first map found. visited guards recursive types.
func findMapIn(t types.Type, visited map[types.Type]bool) (string, bool) {
	if visited[t] {
		return "", false
	}
	if visited == nil {
		visited = make(map[types.Type]bool)
	}
	visited[t] = true

	name := ""
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		if name != "" {
			return name, true
		}
		return u.String(), true
	case *types.Pointer:
		return findMapIn(u.Elem(), visited)
	case *types.Slice:
		return findMapIn(u.Elem(), visited)
	case *types.Array:
		return findMapIn(u.Elem(), visited)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if path, found := findMapIn(f.Type(), visited); found {
				prefix := name
				if prefix == "" {
					prefix = "struct"
				}
				return prefix + "." + f.Name() + " -> " + path, true
			}
		}
	}
	return "", false
}
