package analysis

import (
	"go/types"
	"strings"
	"testing"
)

func fixLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(fixRoot)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoaderModulePath(t *testing.T) {
	l := fixLoader(t)
	if l.Module != "fix" {
		t.Errorf("module = %q, want fix", l.Module)
	}
	if _, err := NewLoader("testdata"); err == nil {
		t.Error("expected error for a directory without go.mod")
	}
}

func TestMatchPatterns(t *testing.T) {
	l := fixLoader(t)

	all, err := l.Match("./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range all {
		paths = append(paths, p.Path)
	}
	want := []string{"fix/clean", "fix/ctxflow", "fix/determinism", "fix/goldenio", "fix/hotpath", "fix/lockdisc"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Errorf("Match(./...) = %v, want %v", paths, want)
	}

	// Single directory, recursive subtree, and import-path forms.
	one, err := l.Match("./clean")
	if err != nil || len(one) != 1 || one[0].Path != "fix/clean" {
		t.Errorf("Match(./clean) = %v, %v", one, err)
	}
	sub, err := l.Match("./clean/...")
	if err != nil || len(sub) != 1 || sub[0].Path != "fix/clean" {
		t.Errorf("Match(./clean/...) = %v, %v", sub, err)
	}
	byPath, err := l.Match("fix/clean")
	if err != nil || len(byPath) != 1 || byPath[0].Path != "fix/clean" {
		t.Errorf("Match(fix/clean) = %v, %v", byPath, err)
	}

	// Duplicate patterns collapse.
	dup, err := l.Match("./clean", "./clean", "fix/clean")
	if err != nil || len(dup) != 1 {
		t.Errorf("duplicate patterns must dedup, got %v, %v", dup, err)
	}

	if _, err := l.Match("./no-such-dir"); err == nil {
		t.Error("expected error for an unmatched single-package pattern")
	}
	if _, err := l.Match("./no-such-dir/..."); err == nil {
		t.Error("expected error for an unmatched recursive pattern")
	}
}

func TestLoadCachesAndIndexes(t *testing.T) {
	l := fixLoader(t)
	p1, err := l.Load("fix/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := l.Load("fix/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Load must cache packages")
	}
	if l.Package("fix/hotpath") != p1 {
		t.Error("Package must return the cached load")
	}
	if l.Package("fix/never-loaded") != nil {
		t.Error("Package must return nil for unloaded paths")
	}
	if len(p1.Hot) == 0 {
		t.Error("hotpath fixture must have hot roots indexed")
	}
	if len(p1.Funcs) == 0 {
		t.Error("Funcs index must be populated")
	}

	// FuncDecl resolves module functions and rejects stdlib ones.
	for fn, fd := range p1.Funcs {
		pkg, decl := l.FuncDecl(fn)
		if pkg != p1 || decl != fd {
			t.Errorf("FuncDecl(%s) did not round-trip", fn.Name())
		}
		break
	}
	if _, decl := l.FuncDecl(nil); decl != nil {
		t.Error("FuncDecl(nil) must be nil")
	}
}

func TestAllowIndex(t *testing.T) {
	l := fixLoader(t)
	if _, err := l.Load("fix/determinism"); err != nil {
		t.Fatal(err)
	}
	// The fixture carries exactly one determinism allow (Telemetry).
	found := false
	for file, lines := range l.allow {
		for line, names := range lines {
			for _, n := range names {
				if n == "determinism" {
					found = true
					if !l.allowed(file, line, "determinism") {
						t.Error("allowed() must report the indexed line")
					}
					if l.allowed(file, line, "hotpath") {
						t.Error("allow is per-analyzer")
					}
				}
			}
		}
	}
	if !found {
		t.Error("expected a determinism allow in the fixture")
	}
	if l.allowed("nope.go", 1, "determinism") {
		t.Error("unknown file must not be allowed")
	}
}

func TestDiagnosticPos(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7}
	if d.Pos() != "a/b.go:3:7" {
		t.Errorf("Pos = %q", d.Pos())
	}
}

func TestReportfRespectsAllow(t *testing.T) {
	l := fixLoader(t)
	pkg, err := l.Load("fix/determinism")
	if err != nil {
		t.Fatal(err)
	}
	var sink []Diagnostic
	pass := &Pass{An: Determinism, L: l, Pkg: pkg, sink: &sink}
	pos := pkg.Files[0].Pos()
	pass.Reportf(pos, "", "plain finding at %s", "top")
	if len(sink) != 1 {
		t.Fatalf("Reportf must append, got %d", len(sink))
	}
	if sink[0].File != "determinism/determinism.go" || sink[0].Line == 0 {
		t.Errorf("position not resolved: %+v", sink[0])
	}
}

func TestRunPackagesSortsAndDedups(t *testing.T) {
	l := fixLoader(t)
	pkg, err := l.Load("fix/goldenio")
	if err != nil {
		t.Fatal(err)
	}
	// Running the same analyzer twice over one package duplicates every
	// finding; RunPackages must collapse them and keep sorted order.
	diags := RunPackages(l, []*Package{pkg}, []*Analyzer{GoldenIO, GoldenIO})
	seen := make(map[string]bool)
	prev := Diagnostic{}
	for i, d := range diags {
		key := d.Pos() + d.Message
		if seen[key] {
			t.Errorf("duplicate diagnostic survived: %s", key)
		}
		seen[key] = true
		if i > 0 && (d.File < prev.File || (d.File == prev.File && d.Line < prev.Line)) {
			t.Errorf("diagnostics out of order at %d: %+v after %+v", i, d, prev)
		}
		prev = d
	}
	if len(diags) == 0 {
		t.Fatal("expected findings")
	}
}

func TestHasDirective(t *testing.T) {
	l := fixLoader(t)
	pkg, err := l.Load("fix/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, fd := range pkg.Hot {
		if !hasDirective(fd.Doc, directiveHotPath) {
			t.Errorf("%s indexed as hot without the directive", fd.Name.Name)
		}
		hot++
	}
	if hot == 0 {
		t.Fatal("no hot roots in fixture")
	}
	if hasDirective(nil, directiveHotPath) {
		t.Error("nil doc must not carry directives")
	}
}

func TestRelPath(t *testing.T) {
	l := fixLoader(t)
	if got := l.rel("/absolutely/elsewhere/x.go"); got != "/absolutely/elsewhere/x.go" {
		t.Errorf("paths outside the module must pass through, got %q", got)
	}
}

func TestRootPackageMapping(t *testing.T) {
	l := fixLoader(t)
	// The module path itself maps to the module root in both directions,
	// even though the fixture keeps all its packages in subdirectories.
	if got := l.dirFor(l.Module); got != l.Root {
		t.Errorf("dirFor(module) = %q, want %q", got, l.Root)
	}
	if got := l.pathFor(l.Root); got != l.Module {
		t.Errorf("pathFor(root) = %q, want %q", got, l.Module)
	}
	if got := l.dirFor(l.Module + "/clean"); !strings.HasSuffix(got, "clean") {
		t.Errorf("dirFor(module/clean) = %q", got)
	}
}

func TestImportStdlibAndUnsafe(t *testing.T) {
	l := fixLoader(t)
	up, err := l.Import("unsafe")
	if err != nil || up == nil || up.Path() != "unsafe" {
		t.Errorf("unsafe import: %v, %v", up, err)
	}
	sp, err := l.Import("sort")
	if err != nil || sp == nil {
		t.Errorf("stdlib import: %v, %v", sp, err)
	}
	// Stdlib functions have no module declaration to resolve to.
	if fn, ok := sp.Scope().Lookup("Strings").(*types.Func); ok {
		if pkg, decl := l.FuncDecl(fn); pkg != nil || decl != nil {
			t.Error("FuncDecl must be nil for stdlib functions")
		}
	} else {
		t.Error("sort.Strings did not resolve to a *types.Func")
	}
	if _, err := l.Load("fix/does-not-exist"); err == nil {
		t.Error("loading a missing package must fail")
	}
}
