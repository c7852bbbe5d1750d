package aspp

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsWithoutCallers is the allow-list of TestExportsHaveCallers: exported
// names that no non-test file uses, and *Config fields that no non-test file
// sets, each kept on purpose. Keys are "package.Name",
// "package.Receiver.Method" or "package.Config.Field".
var exportsWithoutCallers = map[string]string{
	// Routing and core tests build isolated ASes with it; the loaders and
	// the generator only ever add links.
	"topology.Builder.AddAS": "tests build isolated ASes",
	// Experiment's visitor tests pin the extractions per attack through it.
	"detect.EvalScratch.Calls": "visitor tests pin extractions per attack",
	// TestRunSurveyUpdatesMatchFullTables places a churning origin and a
	// twice-listed AS among the monitors, which DefaultMonitors cannot do
	// on demand.
	"measure.SurveyConfig.Monitors": "tests place monitors DefaultMonitors cannot",
}

// TestExportsHaveCallers keeps non-test code to what the programs run. It
// type-checks the module's non-test packages (bench/, cmd/ and examples/
// count) and holds two rules, unless the allow-list above names the key:
//
//   - every exported func, method, type, var and const declared in internal/
//     is used: some identifier resolves to that very object. A
//     use of an interface method uses every method that implements it, and a
//     String or Error method (fmt.Stringer, error) counts as used;
//   - every exported field of an exported *Config struct in internal/ is set
//     by some non-test file, as a composite-literal key, by assignment or by
//     taking its address.
func TestExportsHaveCallers(t *testing.T) {
	m, err := checkModule()
	if err != nil {
		t.Fatal(err)
	}
	used, set := m.uses()

	// decls and fields map each checked object to its allow-list key.
	decls, fields := map[types.Object]string{}, map[types.Object]string{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.Path(), m.path+"/internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			pkgName := p.Name() + "."
			decls[obj] = pkgName + name
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					decls[fn] = pkgName + name + "." + fn.Name()
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !strings.HasSuffix(name, "Config") {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = pkgName + name + "." + f.Name()
				}
			}
		}
	}
	if len(decls) == 0 || len(fields) == 0 {
		t.Fatal("the scan found no exported declarations or no *Config fields")
	}

	seen := map[string]bool{}
	var unused []string
	report := func(objs map[types.Object]string, ok func(types.Object) bool, why string) {
		for obj, key := range objs {
			seen[key] = true
			_, allowed := exportsWithoutCallers[key]
			switch {
			case ok(obj) && allowed:
				t.Errorf("allow-listed %s is %s now: drop it from exportsWithoutCallers", key, strings.TrimPrefix(why, "not "))
			case !ok(obj) && !allowed:
				unused = append(unused, key+" is "+why+" ("+m.fset.Position(obj.Pos()).String()+")")
			}
		}
	}
	report(decls, func(obj types.Object) bool { return used[obj] || implicitlyCalled(obj) }, "not used by non-test code")
	report(fields, func(obj types.Object) bool { return set[obj] }, "not set by non-test code")
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s: delete it or move it into a test file, or give it a caller", u)
	}
	for key := range exportsWithoutCallers {
		if !seen[key] {
			t.Errorf("allow-listed %s is no longer declared: drop it from exportsWithoutCallers", key)
		}
	}
}

// implicitlyCalled reports a String or Error method: fmt and the error
// interface call them without naming them.
func implicitlyCalled(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || (fn.Name() != "String" && fn.Name() != "Error") {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// module is the module's non-test packages, type-checked together.
type module struct {
	path  string // module path
	fset  *token.FileSet
	pkgs  []*types.Package
	files []*ast.File
	info  *types.Info
}

// checkModule parses and type-checks every non-test package under the
// module root (skipping testdata, dot directories and bench/out), each once,
// in import order. Standard-library imports are type-checked from source.
func checkModule() (*module, error) {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(p)
		}
	}
	m := &module{path: modPath, fset: token.NewFileSet(), info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	dirs := map[string]string{} // import path -> directory
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == filepath.Join("bench", "out")) {
			return filepath.SkipDir
		}
		dirs[path.Join(modPath, filepath.ToSlash(p))] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(m.fset, "source", nil)
	checked := map[string]*types.Package{}
	var check func(importPath string) (*types.Package, error)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if _, ok := dirs[importPath]; ok {
			return check(importPath)
		}
		return std.Import(importPath)
	})
	check = func(importPath string) (*types.Package, error) {
		if p, ok := checked[importPath]; ok {
			return p, nil
		}
		bp, err := build.Default.ImportDir(dirs[importPath], 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(importPath, m.fset, files, m.info)
		if err != nil {
			return nil, err
		}
		checked[importPath] = p
		m.pkgs = append(m.pkgs, p)
		m.files = append(m.files, files...)
		return p, nil
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := check(p); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// uses returns the objects some identifier resolves to, with every method
// that implements a used interface method, and the struct fields that some
// composite literal, assignment or address-of sets.
func (m *module) uses() (used, set map[types.Object]bool) {
	used, set = map[types.Object]bool{}, map[types.Object]bool{}
	ifaceMethods := map[*types.Func]bool{}
	for _, obj := range m.info.Uses {
		obj = origin(obj)
		used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[fn] = true
			}
		}
	}
	for _, p := range m.pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for im := range ifaceMethods {
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if !types.Implements(ptr, iface) {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	field := func(x ast.Expr) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			if v, ok := m.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				set[origin(v)] = true
			}
		}
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := m.info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := m.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							set[origin(v)] = true
						}
					} else {
						set[origin(st.Field(i))] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					field(n.X)
				}
			}
			return true
		})
	}
	return used, set
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
