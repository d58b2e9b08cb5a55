package partialhist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryDeclarationIsReached holds the module to code that runs. Its
// roots are the main packages (cmd/, examples/, benchmark/) and this
// package's Benchmark* functions, the paper's experiments. It fails on
//
//   - a non-test package-level func, method, type, var or const that no root
//     reaches, and
//   - a field of a *Options / *Config struct that no reached code assigns,
//     by composite-literal key, assignment or address,
//
// unless testdata/reach_allowlist.txt names it with a reason, and on an
// allowlist line whose symbol is gone or reached. A method is reached when
// its type is and it is either selected in reached code or named by an
// interface reached code mentions (or one the standard library looks for
// by itself: fmt, errors, encoding/json). A function only a package's own
// tests call belongs in that package's export_test.go.
//
// Standard-library packages are read from the go command's export data;
// the module is parsed and type-checked from source.
func TestEveryDeclarationIsReached(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	r := newReach(t, goTool)
	unreached, unassigned := r.run()

	allow, err := readAllowlist(filepath.Join("testdata", "reach_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	found := map[string]bool{}
	allowedLines := 0
	for _, f := range append(unreached, unassigned...) {
		found[f.symbol] = true
		if _, ok := allow[f.symbol]; ok {
			allowedLines += f.lines
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s %s", f.pos, f.symbol, f.what))
	}
	for sym, line := range allow {
		if !found[sym] {
			bad = append(bad, fmt.Sprintf("testdata/reach_allowlist.txt:%d: %s is gone or reached; delete the line", line, sym))
		}
	}
	sort.Strings(bad)
	t.Logf("%d declarations unreached, %d option fields unassigned; %d allowlisted (%d declaration lines)",
		len(unreached), len(unassigned), len(allow), allowedLines)
	for _, b := range bad {
		t.Error(b)
	}
}

// finding is one symbol the test reports.
type finding struct {
	symbol string // module-relative: internal/sim.Network.Send
	what   string
	pos    string
	lines  int
}

// readAllowlist maps each symbol to its line number. A line is a symbol,
// white space and a reason; '#' starts a comment line.
func readAllowlist(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, sym)
		}
		allow[sym] = n
	}
	return allow, sc.Err()
}

// listed is the part of `go list -json` the test reads.
type listed struct {
	ImportPath  string
	Dir         string
	Name        string
	GoFiles     []string
	TestGoFiles []string
	Export      string
	Standard    bool
}

type reach struct {
	fset   *token.FileSet
	module string // module path, stripped from symbols
	pkgs   []*modPkg

	decls   map[types.Object]*decl
	reached map[types.Object]bool
	work    []types.Object

	selected   map[*types.Func]bool
	methodsOf  map[*types.TypeName][]*types.Func
	methodsBy  map[string][]*types.Func
	ifaceNames map[string]bool
	pkgInit    map[*types.Package][]types.Object // init funcs and blank vars
	pkgSeen    map[*types.Package]bool
	assigned   map[*types.Var]bool
}

type modPkg struct {
	path  string
	info  *types.Info
	files []*ast.File
	test  map[*ast.File]bool // this package's _test.go files
	main  bool
}

// decl is one package-level declaration: the node whose references it
// makes, and where it is.
type decl struct {
	pkg  *modPkg
	node ast.Node
	test bool
}

func newReach(t *testing.T, goTool string) *reach {
	r := &reach{
		fset:       token.NewFileSet(),
		decls:      map[types.Object]*decl{},
		reached:    map[types.Object]bool{},
		selected:   map[*types.Func]bool{},
		methodsOf:  map[*types.TypeName][]*types.Func{},
		methodsBy:  map[string][]*types.Func{},
		ifaceNames: map[string]bool{},
		pkgInit:    map[*types.Package][]types.Object{},
		pkgSeen:    map[*types.Package]bool{},
		assigned:   map[*types.Var]bool{},
	}
	// Methods the standard library looks for on a value passed as any.
	for _, m := range []string{"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
		"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"} {
		r.ifaceNames[m] = true
	}

	// This package is the module's root; its test files import packages
	// no module code does.
	root := golist(t, goTool, "-json=ImportPath,Dir,TestGoFiles", ".")
	r.module = root[0].ImportPath
	var testImports []string
	for _, f := range root[0].TestGoFiles {
		af, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root[0].Dir, f), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range af.Imports {
			testImports = append(testImports, strings.Trim(im.Path.Value, `"`))
		}
	}
	all := golist(t, goTool, append([]string{"-deps", "-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,Standard", "./..."}, testImports...)...)
	var std []string
	for _, p := range all {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	exports := map[string]string{}
	for _, p := range golist(t, goTool, append([]string{"-export", "-json=ImportPath,Export"}, std...)...) {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})

	// go list -deps prints a package after everything it imports; this
	// package's test files import the rest, so it goes last.
	sort.SliceStable(all, func(i, j int) bool { return all[j].ImportPath == r.module && all[i].ImportPath != r.module })
	byPath := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	for _, p := range all {
		if p.Standard {
			continue
		}
		mp := &modPkg{path: p.ImportPath, test: map[*ast.File]bool{}, main: p.Name == "main"}
		files := p.GoFiles
		if p.ImportPath == r.module {
			files = append(append([]string{}, files...), p.TestGoFiles...)
		}
		for _, name := range files {
			f, err := parser.ParseFile(r.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			mp.files = append(mp.files, f)
			if strings.HasSuffix(name, "_test.go") {
				mp.test[f] = true
			}
		}
		mp.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, r.fset, mp.files, mp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		byPath[p.ImportPath] = tp
		r.pkgs = append(r.pkgs, mp)
	}
	return r
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func golist(t *testing.T, goTool string, args ...string) []listed {
	out, err := exec.Command(goTool, append([]string{"list", "-e"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// run walks from the roots and returns what nothing reached and the option
// fields nothing assigned.
func (r *reach) run() (unreached, unassigned []finding) {
	var roots []types.Object
	for _, p := range r.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				r.index(p, f, d)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				name := fd.Name.Name
				if (p.main && name == "main") || (p.path == r.module && p.test[f] && strings.HasPrefix(name, "Benchmark")) {
					roots = append(roots, p.info.Defs[fd.Name])
				}
			}
		}
	}
	for _, o := range roots {
		r.reach(o)
	}
	for len(r.work) > 0 {
		o := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		r.visit(r.decls[o])
	}

	for o, d := range r.decls {
		if d.test || r.reached[o] || o.Name() == "_" || o.Name() == "init" || (d.pkg.main && o.Name() == "main") {
			continue
		}
		if fn, ok := o.(*types.Func); ok {
			if tn := recvTypeName(fn); tn != nil && !r.reached[tn] {
				continue // its type is reported
			}
		}
		unreached = append(unreached, r.finding(o, d.node, "is reached from no root"))
	}
	for o, d := range r.decls {
		tn, ok := o.(*types.TypeName)
		if !ok || d.test || !r.reached[o] || !(strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Config")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || r.assigned[f] {
				continue
			}
			unassigned = append(unassigned, finding{
				symbol: r.symbol(tn) + "." + f.Name(),
				what:   "is an option field no reached code assigns",
				pos:    r.relPos(f.Pos()),
				lines:  1,
			})
		}
	}
	return unreached, unassigned
}

// index records a top-level declaration's objects and the methods of each
// named type.
func (r *reach) index(p *modPkg, f *ast.File, d ast.Decl) {
	test := p.test[f]
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn := p.info.Defs[d.Name].(*types.Func)
		r.decls[fn] = &decl{pkg: p, node: d, test: test}
		if d.Recv == nil && d.Name.Name == "init" && !test {
			r.pkgInit[fn.Pkg()] = append(r.pkgInit[fn.Pkg()], fn)
		}
		if tn := recvTypeName(fn); tn != nil {
			r.methodsOf[tn] = append(r.methodsOf[tn], fn)
			r.methodsBy[fn.Name()] = append(r.methodsBy[fn.Name()], fn)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			var node ast.Node = s
			if len(d.Specs) == 1 {
				node = d // count the doc comment and keyword with it
			}
			switch s := s.(type) {
			case *ast.TypeSpec:
				r.decls[p.info.Defs[s.Name]] = &decl{pkg: p, node: node, test: test}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					o := p.info.Defs[n]
					r.decls[o] = &decl{pkg: p, node: node, test: test}
					if n.Name == "_" && !test {
						r.pkgInit[o.Pkg()] = append(r.pkgInit[o.Pkg()], o)
					}
				}
			}
		}
	}
}

func (r *reach) reach(o types.Object) {
	if r.reached[o] || r.decls[o] == nil {
		return
	}
	r.reached[o] = true
	r.work = append(r.work, o)
	if p := o.Pkg(); !r.pkgSeen[p] {
		// An imported package runs its initialisation.
		r.pkgSeen[p] = true
		for _, x := range r.pkgInit[p] {
			r.reach(x)
		}
	}
	if tn, ok := o.(*types.TypeName); ok {
		for _, m := range r.methodsOf[tn] {
			if r.selected[m] || r.ifaceNames[m.Name()] {
				r.reach(m)
			}
		}
	}
}

// visit follows every reference a reached declaration makes.
func (r *reach) visit(d *decl) {
	info := d.pkg.info
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			r.use(info.Uses[n])
		case *ast.CompositeLit:
			r.literal(info, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				r.assign(info, lhs)
			}
		case *ast.IncDecStmt:
			r.assign(info, n.X)
		case *ast.RangeStmt:
			r.assign(info, n.Key)
			r.assign(info, n.Value)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.assign(info, n.X)
			}
		case *ast.CallExpr:
			if sig, ok := info.Types[n.Fun].Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					r.iface(sig.Params().At(i).Type())
				}
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				r.iface(tv.Type)
			}
		}
		return true
	})
}

// use reaches what an identifier refers to.
func (r *reach) use(o types.Object) {
	switch o := o.(type) {
	case *types.Func:
		o = o.Origin()
		sig := o.Type().(*types.Signature)
		if sig.Recv() == nil {
			r.reach(o)
			return
		}
		if types.IsInterface(sig.Recv().Type()) {
			r.nameMethod(o.Name())
			return
		}
		r.selected[o] = true
		if tn := recvTypeName(o); tn != nil && r.reached[tn] {
			r.reach(o)
		}
	case *types.TypeName, *types.Const:
		r.reach(o)
	case *types.Var:
		if !o.IsField() {
			r.reach(o)
		}
	}
}

// iface names the methods of an interface type reached code mentions.
func (r *reach) iface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		r.nameMethod(it.Method(i).Name())
	}
}

func (r *reach) nameMethod(name string) {
	if r.ifaceNames[name] {
		return
	}
	r.ifaceNames[name] = true
	for _, m := range r.methodsBy[name] {
		if tn := recvTypeName(m); tn != nil && r.reached[tn] {
			r.reach(m)
		}
	}
}

// literal marks the fields a composite literal sets.
func (r *reach) literal(info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					r.assigned[v.Origin()] = true
				}
			}
		} else if i < st.NumFields() {
			r.assigned[st.Field(i).Origin()] = true
		}
	}
}

// assign marks the field an assignment target selects.
func (r *reach) assign(info *types.Info, e ast.Expr) {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		r.assigned[s.Obj().(*types.Var).Origin()] = true
	}
}

// recvTypeName is the named type a method is declared on.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func (r *reach) symbol(o types.Object) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(o.Pkg().Path(), r.module), "/")
	if fn, ok := o.(*types.Func); ok {
		if tn := recvTypeName(fn); tn != nil {
			return pkg + "." + tn.Name() + "." + fn.Name()
		}
	}
	return pkg + "." + o.Name()
}

func (r *reach) finding(o types.Object, node ast.Node, what string) finding {
	start := r.fset.Position(node.Pos()).Line
	if d, ok := node.(*ast.FuncDecl); ok && d.Doc != nil {
		start = r.fset.Position(d.Doc.Pos()).Line
	}
	if d, ok := node.(*ast.GenDecl); ok && d.Doc != nil {
		start = r.fset.Position(d.Doc.Pos()).Line
	}
	return finding{
		symbol: r.symbol(o),
		what:   what,
		pos:    r.relPos(o.Pos()),
		lines:  r.fset.Position(node.End()).Line - start + 1,
	}
}

func (r *reach) relPos(p token.Pos) string {
	pos := r.fset.Position(p)
	wd, _ := os.Getwd()
	if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
