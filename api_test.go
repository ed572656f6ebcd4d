package webracer

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedAPI pins the package's exported surface — every exported
// const, var, type, func, method and struct field declared in its
// non-test files — to testdata/golden/api.txt, so any growth or removal
// shows up as a reviewed diff. Regenerate deliberately with
//
//	go test -run TestExportedAPI -update .
func TestExportedAPI(t *testing.T) {
	got := []byte(strings.Join(exportedAPI(t, "."), "\n") + "\n")
	path := filepath.Join("testdata", "golden", "api.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported API drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// exportedAPI parses the non-test Go files in dir and returns one sorted
// line per exported identifier: "func F", "method T.M", "type T",
// "field T.F", "const C" or "var V". Methods and fields count only on
// exported types.
func exportedAPI(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						lines = append(lines, "func "+d.Name.Name)
					case ast.IsExported(baseTypeName(d.Recv.List[0].Type)):
						lines = append(lines, "method "+baseTypeName(d.Recv.List[0].Type)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								lines = append(lines, "type "+sp.Name.Name)
								lines = append(lines, exportedFields(sp)...)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									lines = append(lines, d.Tok.String()+" "+n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// exportedFields lists the exported fields of a struct type spec, an
// embedded field under its type's name.
func exportedFields(sp *ast.TypeSpec) []string {
	st, ok := sp.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var lines []string
	for _, f := range st.Fields.List {
		names := []string{baseTypeName(f.Type)}
		if len(f.Names) > 0 {
			names = names[:0]
			for _, n := range f.Names {
				names = append(names, n.Name)
			}
		}
		for _, n := range names {
			if ast.IsExported(n) {
				lines = append(lines, "field "+sp.Name.Name+"."+n)
			}
		}
	}
	return lines
}

// baseTypeName unwraps a type expression (pointer, generic instance,
// package qualifier) to its base type name; "" for anything else.
func baseTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.Sel
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
