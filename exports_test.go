package aspp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsWithoutCallers is the allow-list of TestExportsHaveCallers: exported
// names that no non-test file uses, each kept on purpose. Keys are
// "package.Name" or "package.Receiver.Method".
var exportsWithoutCallers = map[string]string{
	// The public facade names the type of Counters.Snapshot's result, so
	// callers can declare one.
	"aspp.CountersSnapshot": "public facade type",
	// Routing and core tests build isolated ASes with it; the loaders and
	// the generator only ever add links.
	"topology.Builder.AddAS": "tests build isolated ASes",
	// Experiment's visitor tests pin the extractions per attack through it.
	"detect.EvalScratch.Calls": "visitor tests pin extractions per attack",
}

// exportDecl is one exported declaration the scan found.
type exportDecl struct {
	key  string // package.Name or package.Receiver.Method
	name string
	pos  string
}

// TestExportsHaveCallers keeps non-test code to what the programs run: every
// exported func, method, type, var and const declared in internal/ or in
// aspp.go must be named by some non-test file of the module (bench/, cmd/
// and examples/ count), unless the allow-list above names it. Like a grep, it
// matches by name, so a name shared with any other identifier passes.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	var decls []exportDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := declNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		if path == "aspp.go" || strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			decls = append(decls, exportedDecls(fset, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if !used[d.name] {
			if _, ok := exportsWithoutCallers[d.key]; !ok {
				unused = append(unused, d.key+" ("+d.pos+")")
			}
		} else if _, ok := exportsWithoutCallers[d.key]; ok {
			t.Errorf("allow-listed %s has a non-test caller now: drop it from exportsWithoutCallers", d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no non-test caller: move it into a test file, or give it a caller", u)
	}
	for key := range exportsWithoutCallers {
		if !seen[key] {
			t.Errorf("allow-listed %s is no longer declared: drop it from exportsWithoutCallers", key)
		}
	}
	if len(decls) == 0 {
		t.Fatal("the scan found no exported declarations")
	}
}

// declNames returns the identifiers that name f's package-level
// declarations: the scan does not count a name's own declaration as a use.
func declNames(f *ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out[s.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						out[id] = true
					}
				}
			}
		}
	}
	return out
}

// exportedDecls lists f's exported package-level funcs, types, vars and
// consts, and its exported methods on exported receivers.
func exportedDecls(fset *token.FileSet, f *ast.File) []exportDecl {
	pkg := f.Name.Name
	var out []exportDecl
	add := func(key string, id *ast.Ident) {
		out = append(out, exportDecl{key: key, name: id.Name, pos: fset.Position(id.Pos()).String()})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(pkg+"."+d.Name.Name, d.Name)
			} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(pkg+"."+recv+"."+d.Name.Name, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(pkg+"."+s.Name.Name, s.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(pkg+"."+id.Name, id)
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
