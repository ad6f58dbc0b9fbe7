// Package analysistest runs framework analyzers over GOPATH-style
// fixture trees and checks their diagnostics against // want comments,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives under testdata/src/<importpath>/ and is an ordinary
// Go package; imports resolve first against the fixture tree (so stubs
// can mirror real module packages like spider/internal/valfile) and then
// against the standard library. Expectations are written on the line
// they apply to:
//
//	r, _ := store.OpenFile(path, nil) // want `never closed`
//
// Each backquoted or double-quoted argument is a regexp that must match
// one diagnostic reported on that line; diagnostics and expectations
// must correspond one-to-one per line.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spider/internal/analyzers/framework"
)

// Run loads each fixture package and asserts that the analyzer's
// directive-filtered diagnostics exactly satisfy the fixtures' // want
// comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	l := newLoader(testdata)
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := framework.RunPackage([]*framework.Analyzer{a}, l.fset, pkg.files, pkg.pkg, pkg.info)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		diags = framework.ApplyIgnores(l.fset, pkg.files, diags)
		check(t, l.fset, pkg.files, diags)
	}
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	testdata string
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*loadedPkg
}

func newLoader(testdata string) *loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		testdata: testdata,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*loadedPkg),
	}
}

func (l *loader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: importerFunc(l.importPkg)}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	p := &loadedPkg{files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

// importPkg resolves fixture-tree imports (stubs mirroring real module
// packages) before falling back to the standard library.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(l.testdata, "src", filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one // want regexp, tracked until a diagnostic
// consumes it.
type expectation struct {
	re       *regexp.Regexp
	raw      string
	consumed bool
}

type lineKey struct {
	file string
	line int
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []framework.Diagnostic) {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, raw := range parseWants(t, pos, c.Text) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						continue
					}
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &expectation{re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.consumed && w.re.MatchString(d.Message) {
				w.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.consumed {
				t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, w.raw)
			}
		}
	}
}

// parseWants extracts the regexp arguments of a "// want" comment.
func parseWants(t *testing.T, pos token.Position, comment string) []string {
	t.Helper()
	body := strings.TrimPrefix(comment, "//")
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, "want ")
	if !ok {
		return nil
	}
	var out []string
	rest = strings.TrimSpace(rest)
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Errorf("%s: malformed want comment %q", pos, comment)
			return out
		}
		unq, err := strconv.Unquote(q)
		if err != nil {
			t.Errorf("%s: malformed want argument %q", pos, q)
			return out
		}
		out = append(out, unq)
		rest = strings.TrimSpace(rest[len(q):])
	}
	return out
}
