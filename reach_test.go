package rbb

import (
	"errors"
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

// TestReachability fails for every package-level declaration of this
// module — function, method, type, constant or variable, blank names
// aside — that only its own package's tests reach: code the build carries
// for no caller.
// It type-checks the module from source with the standard library alone and
// follows references from these roots:
//
//   - every main and init function, and every package-level variable with
//     an initializer (initializers run at init);
//   - the facade's exported API and the method sets of its exported types;
//   - every use from another package's tests, so a helper that one
//     package's tests share with another's stays;
//   - every declaration of a nested module: ladder/, the benchmark, builds
//     on internal/ but is a module of its own, which `go build ./...` never
//     compiles.
//
// A method that an interface names is reached when its receiver type is,
// since a call through the interface cannot be followed statically. A
// declaration only its own package's tests need belongs in a _test.go
// file.
func TestReachability(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dead := m.unreached()
	for _, d := range dead {
		t.Errorf("%s %s: only its own package's tests reach it", d.pos, d.name)
	}
	if len(dead) > 0 {
		t.Logf("%d declarations: delete each, or move it into the _test.go file that uses it", len(dead))
	}
}

const modPath = "repro"

// errorsInterfaces declares the interfaces package errors asserts inside
// its function bodies, which no package-level declaration names.
const errorsInterfaces = `package errorsinterfaces

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// modPkg is one directory of Go files.
type modPkg struct {
	path   string
	name   string
	nested bool        // in a nested module: all its declarations are roots
	files  []*ast.File // non-test files
	tests  []*ast.File // _test.go files of the package itself
	xtests []*ast.File // _test.go files of package name_test

	base *types.Package // files alone
	info *types.Info    // of base
	test *types.Package // files plus tests, as the xtests import it
}

type module struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*modPkg
	order  []string       // import paths, sorted
	extra  *types.Package // errorsInterfaces
	decls  map[token.Pos]*decl
	roots  []token.Pos
	ifaces map[string][]*types.Interface
}

// decl is one package-level declaration: a function, a method, a type or
// one name of a var or const spec, keyed by the position of its name, which
// every type-check of its file shares.
type decl struct {
	pkg  *modPkg
	name string          // Recv.Method for methods
	tn   *types.TypeName // for a type
	refs []token.Pos     // the declarations it names
}

type deadDecl struct{ pos, name string }

func loadModule(root string) (*module, error) {
	m := &module{
		root:  root,
		fset:  token.NewFileSet(),
		pkgs:  map[string]*modPkg{},
		decls: map[token.Pos]*decl{},
	}
	// Without cgo the standard library type-checks from its pure-Go files
	// alone, with no C toolchain; the API it declares is the same.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	m.std = importer.ForCompiler(m.fset, "source", nil)
	ctx := build.Default
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		return m.addDir(&ctx, dir)
	})
	if err != nil {
		return nil, err
	}
	for p := range m.pkgs {
		m.order = append(m.order, p)
	}
	sort.Strings(m.order)
	for _, p := range m.order {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	for _, p := range m.order {
		if err := m.checkTests(m.pkgs[p]); err != nil {
			return nil, err
		}
	}
	f, err := parser.ParseFile(m.fset, "errorsinterfaces.go", errorsInterfaces, 0)
	if err != nil {
		return nil, err
	}
	if m.extra, err = m.check("errorsinterfaces", []*ast.File{f}, m, nil); err != nil {
		return nil, err
	}
	m.ifaces = m.interfaces()
	return m, nil
}

func (m *module) addDir(ctx *build.Context, dir string) error {
	bp, err := ctx.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	}
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return err
	}
	p := &modPkg{path: modPath, name: bp.Name}
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
		for d := rel; d != "."; d = filepath.Dir(d) {
			if _, err := os.Stat(filepath.Join(m.root, d, "go.mod")); err == nil {
				p.nested = true
			}
		}
	}
	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	if p.files, err = parse(bp.GoFiles); err != nil {
		return err
	}
	if p.tests, err = parse(bp.TestGoFiles); err != nil {
		return err
	}
	if p.xtests, err = parse(bp.XTestGoFiles); err != nil {
		return err
	}
	m.pkgs[p.path] = p
	return nil
}

// Import type-checks a module package's non-test files, once, and imports
// everything else from the standard library's source.
func (m *module) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.base != nil {
		return p.base, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	base, err := m.check(path, p.files, m, p.info)
	if err != nil {
		return nil, err
	}
	p.base = base
	m.addDecls(p)
	return base, nil
}

func (m *module) check(path string, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	pkg, _ := conf.Check(path, m.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(errs...))
	}
	return pkg, nil
}

// addDecls records p's package-level declarations, what each names, and
// which of them are roots.
func (m *module) addDecls(p *modPkg) {
	add := func(id *ast.Ident, d *decl, root bool) {
		m.decls[id.Pos()] = d
		if root || p.nested {
			m.roots = append(m.roots, id.Pos())
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = recvName(d.Recv.List[0].Type) + "." + name
				}
				root := d.Recv == nil && (name == "init" || name == "main" && p.name == "main")
				add(d.Name, &decl{pkg: p, name: name, refs: m.refs(p, d)}, root)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					refs := m.refs(p, s)
					switch s := s.(type) {
					case *ast.TypeSpec:
						tn, _ := p.info.Defs[s.Name].(*types.TypeName)
						add(s.Name, &decl{pkg: p, name: s.Name.Name, tn: tn, refs: refs}, false)
					case *ast.ValueSpec:
						root := false
						for _, n := range s.Names {
							// A blank var is a compile-time assertion, not a use.
							root = root || d.Tok == token.VAR && len(s.Values) > 0 && n.Name != "_"
						}
						for _, n := range s.Names {
							add(n, &decl{pkg: p, name: n.Name, refs: refs}, root)
						}
					}
				}
			}
		}
	}
	if p.path == modPath {
		m.facadeRoots(p.base)
	}
}

// refs lists the declarations node names, and the defined types of the
// values it declares (an implicitly typed iota constant names none).
func (m *module) refs(p *modPkg, node ast.Node) []token.Pos {
	var refs []token.Pos
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				refs = append(refs, origin(obj).Pos())
			}
			if obj := p.info.Defs[id]; obj != nil {
				if named := namedOf(obj.Type()); named != nil {
					refs = append(refs, named.Obj().Pos())
				}
			}
		}
		return true
	})
	return refs
}

// facadeRoots makes the facade's exported names, and the exported methods
// of its exported types, roots.
func (m *module) facadeRoots(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		m.roots = append(m.roots, obj.Pos())
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(obj.Type()))
		for i := 0; i < ms.Len(); i++ {
			if f := ms.At(i).Obj(); f.Exported() {
				m.roots = append(m.roots, origin(f).Pos())
			}
		}
	}
}

// checkTests type-checks p's tests and makes every use they make of
// another package's declaration a root.
func (m *module) checkTests(p *modPkg) error {
	p.test = p.base
	if len(p.tests) > 0 {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		files := append(append([]*ast.File{}, p.files...), p.tests...)
		pkg, err := m.check(p.path, files, m, info)
		if err != nil {
			return err
		}
		p.test = pkg
		m.testRoots(p, p.tests, info)
	}
	if len(p.xtests) > 0 {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		v := &testVariant{m: m, under: p, pkgs: map[string]*types.Package{}}
		if _, err := m.check(p.path+"_test", p.xtests, v, info); err != nil {
			return err
		}
		m.testRoots(p, p.xtests, info)
	}
	return nil
}

func (m *module) testRoots(p *modPkg, files []*ast.File, info *types.Info) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				pos := origin(info.Uses[id]).Pos()
				if d := m.decls[pos]; d != nil && d.pkg != p {
					m.roots = append(m.roots, pos)
				}
			}
			return true
		})
	}
}

// testVariant is the importer of an external test package: it returns the
// package under test with its own tests, and re-checks against that every
// module package which imports it, as `go test` builds them.
type testVariant struct {
	m     *module
	under *modPkg
	pkgs  map[string]*types.Package
}

func (v *testVariant) Import(path string) (*types.Package, error) {
	if path == v.under.path {
		return v.under.test, nil
	}
	p := v.m.pkgs[path]
	if p == nil || !v.m.dependsOn(p, v.under.path, map[string]bool{}) {
		return v.m.Import(path)
	}
	if pkg := v.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	pkg, err := v.m.check(path, p.files, v, nil)
	if err != nil {
		return nil, err
	}
	v.pkgs[path] = pkg
	return pkg, nil
}

// dependsOn reports whether p imports path, directly or not.
func (m *module) dependsOn(p *modPkg, path string, seen map[string]bool) bool {
	if seen[p.path] {
		return false
	}
	seen[p.path] = true
	for _, imp := range p.base.Imports() {
		if imp.Path() == path {
			return true
		}
		if q := m.pkgs[imp.Path()]; q != nil && m.dependsOn(q, path, seen) {
			return true
		}
	}
	return false
}

// unreached follows references from the roots and returns the non-blank
// declarations outside nested modules that it never reaches.
func (m *module) unreached() []deadDecl {
	reached := map[token.Pos]bool{}
	work := append([]token.Pos(nil), m.roots...)
	for len(work) > 0 {
		pos := work[len(work)-1]
		work = work[:len(work)-1]
		d := m.decls[pos]
		if d == nil || reached[pos] {
			continue
		}
		reached[pos] = true
		work = append(work, d.refs...)
		if d.tn != nil {
			work = append(work, m.viaInterfaces(d.tn.Type())...)
		}
	}
	var dead []deadDecl
	for pos, d := range m.decls {
		if d.name != "_" && !d.pkg.nested && !reached[pos] {
			at := m.fset.Position(pos)
			file, err := filepath.Rel(m.root, at.Filename)
			if err != nil {
				file = at.Filename
			}
			dead = append(dead, deadDecl{fmt.Sprintf("%s:%d", filepath.ToSlash(file), at.Line), d.pkg.name + "." + d.name})
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	return dead
}

// interfaces indexes by method name every interface with methods that the
// module's non-test code, the standard library packages it imports, or
// package errors' function bodies declare.
func (m *module) interfaces() map[string][]*types.Interface {
	idx := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx[name] = append(idx[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	visit(m.extra)
	for _, path := range m.order {
		p := m.pkgs[path]
		visit(p.base)
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return idx
}

// viaInterfaces returns the methods of t and *t that an interface they
// implement names.
func (m *module) viaInterfaces(t types.Type) []token.Pos {
	if types.IsInterface(t) {
		return nil
	}
	generic := false
	if named, ok := t.(*types.Named); ok {
		generic = named.TypeParams().Len() > 0
	}
	var refs []token.Pos
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		f := ms.At(i).Obj()
		for _, it := range m.ifaces[f.Name()] {
			// An uninstantiated generic type implements nothing; keep
			// its methods by name.
			if generic || types.Implements(t, it) || types.Implements(ptr, it) {
				refs = append(refs, origin(f).Pos())
				break
			}
		}
	}
	return refs
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// namedOf returns the defined type of t, or of what t points to.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
