package analysis

import (
	"go/ast"
	"strings"
)

// The repo's analysis directives. Directives are machine-readable comments
// (no space after "//", like //go:noinline), so gofmt leaves them alone and
// ast.CommentGroup.Text — which strips directives — never hides them from
// humans reading the rendered docs.
const (
	// directiveHotPath marks a function as an allocation-free hot path
	// root; the hotpath analyzer checks it and its statically-resolved
	// module callees.
	directiveHotPath = "//depburst:hotpath"
	// directiveGuardedBy marks a struct field as protected by a sibling
	// mutex field:
	//
	//	//depburst:guardedby <mu>
	//
	// on the field's doc or trailing comment. The lockdisc analyzer then
	// requires every read/write of the field to hold <mu> (name an embedded
	// mutex by its type name, "Mutex"/"RWMutex").
	directiveGuardedBy = "//depburst:guardedby"
	// directiveLocked asserts a helper is only called with the receiver's
	// named mutex already held:
	//
	//	//depburst:locked <mu>
	//
	// lockdisc analyzes the body as if <mu> were write-held on entry. The
	// call-site obligation is the caller's, documented by the annotation.
	directiveLocked = "//depburst:locked"
	// directiveAllow suppresses one analyzer on the line it annotates:
	//
	//	//depburst:allow <analyzer> <reason...>
	//
	// placed at the end of the offending line or on its own line directly
	// above it. The reason is mandatory by convention: an unexplained
	// exemption is a review smell.
	directiveAllow = "//depburst:allow"
)

// hasDirective reports whether a doc comment carries the given directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := strings.CutPrefix(c.Text, directive); ok {
			if text == "" || text[0] == ' ' || text[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// recordAllows indexes every //depburst:allow directive in f. A directive
// applies to its own source line and the line below, covering both the
// trailing-comment and the standalone-comment placements.
func (l *Loader) recordAllows(f *ast.File) {
	for _, grp := range f.Comments {
		for _, c := range grp.List {
			rest, ok := strings.CutPrefix(c.Text, directiveAllow)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			name := fields[0]
			pos := l.Fset.Position(c.Pos())
			lines := l.allow[pos.Filename]
			if lines == nil {
				lines = make(map[int][]string)
				l.allow[pos.Filename] = lines
			}
			lines[pos.Line] = append(lines[pos.Line], name)
			lines[pos.Line+1] = append(lines[pos.Line+1], name)
		}
	}
}

// allowed reports whether diagnostics from the named analyzer are suppressed
// at file:line by an //depburst:allow directive.
func (l *Loader) allowed(file string, line int, analyzer string) bool {
	for _, name := range l.allow[file][line] {
		if name == analyzer {
			return true
		}
	}
	return false
}
