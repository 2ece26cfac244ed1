package proptest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// unseeded returns the position of every unseeded testing/quick
// configuration in file: a quick.Config literal without a Rand field, any
// other use of the quick.Config type (a zero value has no Rand), and a nil
// configuration passed to quick.Check or quick.CheckEqual, which draws from
// a time-seeded source.
func unseeded(fset *token.FileSet, file *ast.File) []string {
	name := ""
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "testing/quick" {
			name = "quick"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	is := func(e ast.Expr, sel string) bool {
		s, ok := e.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != sel {
			return false
		}
		id, ok := s.X.(*ast.Ident)
		return ok && id.Name == name
	}
	var found []string
	seeded := map[ast.Expr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !is(n.Type, "Config") {
				return true
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Rand" {
						seeded[n.Type] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if is(n, "Config") && !seeded[n] {
				found = append(found, fset.Position(n.Pos()).String()+": quick.Config without a seeded Rand")
			}
		case *ast.CallExpr:
			if (is(n.Fun, "Check") || is(n.Fun, "CheckEqual")) && len(n.Args) > 0 {
				if id, ok := n.Args[len(n.Args)-1].(*ast.Ident); ok && id.Name == "nil" {
					found = append(found, fset.Position(n.Pos()).String()+": nil quick.Config draws from a time-seeded source")
				}
			}
		}
		return true
	})
	return found
}

// TestUnseededFixture holds the check to a fixture with each kind of
// unseeded configuration and one seeded literal.
func TestUnseededFixture(t *testing.T) {
	const src = `package p

import (
	"math/rand"
	q "testing/quick"
)

func f(x int) bool { return true }

func checks() {
	_ = q.Check(f, nil)
	_ = q.CheckEqual(f, f, nil)
	_ = q.Check(f, &q.Config{MaxCount: 5})
	var zero q.Config
	_ = q.Check(f, &zero)
	_ = q.Check(f, &q.Config{MaxCount: 5, Rand: rand.New(rand.NewSource(1))})
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture_test.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := unseeded(fset, file)
	for i, want := range []string{"fixture_test.go:11:6", "fixture_test.go:12:6", "fixture_test.go:13:18", "fixture_test.go:14:11"} {
		if i >= len(got) || !strings.HasPrefix(got[i], want+":") {
			t.Fatalf("finding %d: got %q, want one at %s", i, got, want)
		}
	}
	if len(got) != 4 {
		t.Fatalf("got %d findings, want 4: %q", len(got), got)
	}
}

// TestEveryQuickCheckIsSeeded requires every test file of the module to
// seed its testing/quick properties, through Config or a Rand of its own.
func TestEveryQuickCheckIsSeeded(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, f := range unseeded(fset, file) {
			t.Error(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d test files; the walk missed the module", files)
	}
}
