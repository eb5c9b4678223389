// Package surface holds repository-wide checks and no product code.
// The dead-surface gate: every exported identifier under internal/ must
// have a caller in a non-test file of another package (cmd/, internal/
// or the bench/ module), or be listed in testdata/allowlist.txt with its
// reason. The claims check: every statistic in BENCH_claims.json follows
// from the pairs it lists.
//
//	go test -run TestNoDeadExports ./internal/surface/
//	go test -run TestBenchClaims ./internal/surface/
package surface

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is the root module's path; bench/ is a module of its own
// (modulePath + "/bench") that replaces it with the checkout.
const modulePath = "repro"

// allowReasons are the two reasons an unreferenced export may stay.
var allowReasons = map[string]bool{
	"oracle": true, // a reference implementation tests compare against
	"seam":   true, // lets a test substitute a fake
}

// pkg is one type-checked package of the repository.
type pkg struct {
	path  string
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the repository's packages from source, each once,
// and the standard library through one shared source importer.
type loader struct {
	fset *token.FileSet
	root string
	std  types.ImporterFrom
	pkgs map[string]*pkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of one repository
// package, recording every identifier use.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadTree loads every package with non-test Go files below root/sub.
func (l *loader) loadTree(sub string) error {
	return filepath.WalkDir(filepath.Join(l.root, sub), func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(dir, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		_, err = l.load(modulePath + "/" + filepath.ToSlash(rel))
		return err
	})
}

// export is one exported top-level identifier or method under internal/.
type export struct {
	obj      types.Object
	name     string // (*query.Query).Select, service.New
	pos      token.Position
	internal bool // referenced by its own package's non-test files
}

// exportName spells obj the way the allowlist does.
func exportName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	t, star := recv.Type(), ""
	if p, ok := t.(*types.Pointer); ok {
		t, star = p.Elem(), "*"
	}
	return fmt.Sprintf("(%s%s.%s).%s", star, obj.Pkg().Name(), t.(*types.Named).Obj().Name(), obj.Name())
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// deadExports returns every exported identifier under internal/ that no
// non-test file of another package references, less the methods that
// implement an interface and the types a used identifier exposes.
func deadExports(t *testing.T, root string) []*export {
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
	for _, sub := range []string{"cmd", "internal", "bench"} {
		if err := l.loadTree(sub); err != nil {
			t.Fatalf("type-check %s: %v", sub, err)
		}
	}

	exports := map[types.Object]*export{}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		var ids []*ast.Ident
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					ids = append(ids, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							ids = append(ids, s.Name)
						case *ast.ValueSpec:
							ids = append(ids, s.Names...)
						}
					}
				}
			}
		}
		for _, id := range ids {
			if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
				exports[obj] = &export{obj: obj, name: exportName(obj), pos: fset.Position(id.Pos())}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			e, ok := exports[obj]
			if !ok {
				continue
			}
			if obj.Pkg() == p.types {
				e.internal = true
			} else {
				used[obj] = true
			}
		}
	}

	// Types a used identifier exposes through its signature or its
	// exported fields are part of that identifier's API.
	exposed := map[types.Object]bool{}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			exposed[t.Origin().Obj()] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Alias:
			exposed[t.Obj()] = true
			walk(types.Unalias(t))
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for obj := range used {
		walk(obj.Type())
	}

	// Every interface the program and the standard library declare, or
	// spell inline, that a method may be implementing.
	ifaces := map[string][]*types.Interface{} // by method name
	seenPkg := map[*types.Package]bool{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var addPkg func(*types.Package)
	addPkg = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, imp := range tp.Imports() {
			addPkg(imp)
		}
	}
	for _, p := range l.pkgs {
		addPkg(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var dead []*export
	for obj, e := range exports {
		if used[obj] || exposed[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && implements(fn) {
			continue
		}
		dead = append(dead, e)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
}

// readAllowlist parses "<identifier> <reason>" lines.
func readAllowlist(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || !allowReasons[fields[1]] {
			t.Fatalf("%s:%d: want \"<identifier> oracle|seam\", got %q", path, n, sc.Text())
		}
		if _, dup := allow[fields[0]]; dup {
			t.Fatalf("%s:%d: %s listed twice", path, n, fields[0])
		}
		allow[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestNoDeadExports fails on every exported identifier under internal/
// without a non-test caller in another package that the allowlist does
// not name, and on every allowlist line that no longer matches one.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowlist(t, filepath.Join("testdata", "allowlist.txt"))
	dead := deadExports(t, root)
	reported := map[string]bool{}
	for _, e := range dead {
		reported[e.name] = true
		if allow[e.name] != "" {
			continue
		}
		fix := "delete it, or move it into the tests that use it"
		if e.internal {
			fix = "unexport it: only its own package uses it"
		}
		t.Errorf("%s: %s has no caller outside its package in non-test code; %s", e.pos, e.name, fix)
	}
	for name := range allow {
		if !reported[name] {
			t.Errorf("testdata/allowlist.txt: %s is stale (now used, or gone); delete the line", name)
		}
	}
}
