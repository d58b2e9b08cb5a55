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

// TestEveryDeclarationIsReached holds the module to code that runs and
// state that is read. Its roots are the main packages (cmd/ and
// benchmark/) and this package's Benchmark* functions, the paper's
// experiments; a walkthrough is an Example test, not a root. It fails on
//
//   - a main package with no _test.go file: a program no test runs;
//   - (a) a non-test package-level func, method, type, var or const that no
//     root reaches; a const is reached only by a use other than a case
//     expression or an operand of == or !=, since no test matches a value
//     nothing produces (one matched against input the program reads, such
//     as a flag's words, is allowlisted);
//   - (b) a field of a reached struct that no reached code writes: by
//     assignment (also as part of a selector path, x.f.g = …), by
//     composite-literal key, by taking its address or calling a
//     pointer method on it, or as a range target;
//   - (c) a field of a reached struct that no reached code reads: a read is
//     a selector that is not the direct target of =, :=, op=, ++ or --.
//     == and != on a struct or array value, a struct used as a map key,
//     and a value handed to a standard-library interface parameter (fmt,
//     encoding/json, reflect) read every field; an embedded field is read
//     when a promoted field or method is selected through it;
//   - (d) a field of a reached settings struct, one whose name ends in
//     Config or Options, that every reached write sets to one and the same
//     constant. A write is a composite-literal key or positional element or
//     an = assignment; one that is not a constant (a variable, a call, op=,
//     ++, &x.f as a flag takes it, a range target, a pointer-method call)
//     is a second value. A literal that omits the field writes its zero,
//     unless the field is defaulted (assigned a constant inside
//     if x.f == 0 or if x.f < 1), when it writes the default.
//
// Checks (b), (c) and (d) skip structs declared in tests and structs with a
// json tag, whose fields a decoder writes and an encoder reads. A finding
// fails unless testdata/reach_allowlist.txt names it with a reason, and an
// allowlist line whose symbol is gone, reached, read and written (or set to
// a second value) fails too.
// A method is reached when its type is and it is either selected in
// reached code or named by an interface reached code mentions (or one the
// standard library looks for by itself: fmt, errors, encoding/json). A
// function only a package's own tests call belongs in that package's
// export_test.go. TestReachFixture holds the gate to a module that plants
// one of each finding and each case that must not be one.
//
// Standard-library packages are read from the go command's export data;
// the module is parsed and type-checked from source.
func TestEveryDeclarationIsReached(t *testing.T) {
	for _, b := range reachCheck(t, ".") {
		t.Error(b)
	}
}

// TestReachFixture runs the gate on testdata/reach/fixture, a module of its
// own that ./... never builds, and requires exactly the findings it plants.
func TestReachFixture(t *testing.T) {
	dir := filepath.Join("testdata", "reach", "fixture")
	got := reachCheck(t, dir)
	for i, b := range got {
		got[i] = b[strings.Index(b, " ")+1:] // drop the file position
	}
	sort.Strings(got)
	want := []string{
		"cmd/untested.main is a program no test runs",
		"lib.Config.Unset is a field no reached code writes",
		"lib.Counter.Hits is a field no reached code reads",
		"lib.Counter.Zero is a field no reached code writes",
		"lib.Dead.Gone is gone, reached, read and written; delete the line",
		"lib.Options.Defaulted is a setting every reached write sets to 5; make it a constant",
		"lib.Options.Fixed is a setting every reached write sets to 3; make it a constant",
		"lib.modeB is reached from no root",
		"lib.unused is reached from no root",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// reachCheck runs the four checks on the module in dir against its
// testdata/reach_allowlist.txt and returns the failures, sorted.
func reachCheck(t *testing.T, dir string) []string {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	r := newReach(t, goTool, dir)
	unreached, fields := r.run()

	allowPath := filepath.Join(dir, "testdata", "reach_allowlist.txt")
	allow, err := readAllowlist(allowPath)
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	found := map[string]bool{}
	allowedLines := 0
	for _, f := range append(unreached, fields...) {
		found[f.symbol] = true
		if _, ok := allow[f.symbol]; ok {
			allowedLines += f.lines
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s %s", f.pos, f.symbol, f.what))
	}
	for sym, line := range allow {
		if !found[sym] {
			bad = append(bad, fmt.Sprintf("%s:%d: %s is gone, reached, read and written; delete the line", allowPath, line, sym))
		}
	}
	sort.Strings(bad)
	t.Logf("%s: %d declarations unreached, %d fields unread, unwritten or set to one value; %d allowlisted (%d declaration lines)",
		dir, len(unreached), len(fields), len(allow), allowedLines)
	return bad
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
	dir    string // the module's directory, stripped from positions
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
	written    map[*types.Var]bool
	read       map[*types.Var]bool
	readTypes  map[readKey]bool // types whose every field is read

	// Check (d): the values reached code writes into each field.
	values   map[*types.Var]map[string]bool // constant writes, by constKey
	varied   map[*types.Var]bool            // a write that is not a constant
	omitted  map[*types.Var]bool            // a literal that leaves it zero
	defaults map[*types.Var]string          // the constant a zero field is given
}

type readKey struct {
	t    types.Type
	deep bool
}

type modPkg struct {
	path  string
	info  *types.Info
	files []*ast.File
	test  map[*ast.File]bool // this package's _test.go files
	main  bool
	// tested reports whether the package has an in-package _test.go
	// file, the only kind that can run a main package's code.
	tested bool
}

// decl is one package-level declaration: the node whose references it
// makes, and where it is.
type decl struct {
	pkg  *modPkg
	node ast.Node
	test bool
}

func newReach(t *testing.T, goTool, dir string) *reach {
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &reach{
		fset:       token.NewFileSet(),
		dir:        abs,
		decls:      map[types.Object]*decl{},
		reached:    map[types.Object]bool{},
		selected:   map[*types.Func]bool{},
		methodsOf:  map[*types.TypeName][]*types.Func{},
		methodsBy:  map[string][]*types.Func{},
		ifaceNames: map[string]bool{},
		pkgInit:    map[*types.Package][]types.Object{},
		pkgSeen:    map[*types.Package]bool{},
		written:    map[*types.Var]bool{},
		read:       map[*types.Var]bool{},
		readTypes:  map[readKey]bool{},
		values:     map[*types.Var]map[string]bool{},
		varied:     map[*types.Var]bool{},
		omitted:    map[*types.Var]bool{},
		defaults:   map[*types.Var]string{},
	}
	// Methods the standard library looks for on a value passed as any.
	for _, m := range []string{"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
		"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"} {
		r.ifaceNames[m] = true
	}

	// This package is the module's root; its test files import packages
	// no module code does.
	root := golist(t, goTool, abs, "-json=ImportPath,Dir,TestGoFiles", ".")
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
	all := golist(t, goTool, abs, append([]string{"-deps", "-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,Standard", "./..."}, testImports...)...)
	var std []string
	for _, p := range all {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	exports := map[string]string{}
	for _, p := range golist(t, goTool, abs, append([]string{"-export", "-json=ImportPath,Export"}, std...)...) {
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
		mp := &modPkg{path: p.ImportPath, test: map[*ast.File]bool{}, main: p.Name == "main", tested: len(p.TestGoFiles) > 0}
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

func golist(t *testing.T, goTool, dir string, args ...string) []listed {
	cmd := exec.Command(goTool, append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
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

// run walks from the roots and returns what nothing reached and the fields
// of reached structs that reached code never reads or never writes.
func (r *reach) run() (unreached, fields []finding) {
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
				if p.main && name == "main" && !p.tested {
					unreached = append(unreached, r.finding(p.info.Defs[fd.Name], fd, "is a program no test runs"))
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
		if !ok || d.test || !r.reached[o] {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok || jsonTagged(st) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			var what []string
			if !r.read[f] {
				what = append(what, "reads")
			}
			if !r.written[f] {
				what = append(what, "writes")
			}
			var msg string
			switch v, one := r.oneValue(f); {
			case len(what) > 0:
				msg = "is a field no reached code " + strings.Join(what, " or ")
			case one && settings(tn.Name()):
				msg = "is a setting every reached write sets to " + v + "; make it a constant"
			default:
				continue
			}
			fields = append(fields, finding{
				symbol: r.symbol(tn) + "." + f.Name(),
				what:   msg,
				pos:    r.relPos(f.Pos()),
				lines:  1,
			})
		}
	}
	return unreached, fields
}

// settings reports whether a struct's name marks it a component's settings,
// the structs check (d) holds to a second value.
func settings(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// jsonTagged reports whether a struct is shaped for encoding/json, which
// reads and writes its fields by reflection.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if strings.Contains(st.Tag(i), `json:"`) {
			return true
		}
	}
	return false
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

// visit follows every reference a reached declaration makes, and records
// the fields it reads and writes.
func (r *reach) visit(d *decl) {
	info := d.pkg.info
	targets := map[ast.Expr]bool{}    // selectors an assignment stores to
	compared := map[*ast.Ident]bool{} // names a case or ==, != only tests against
	defaulting := map[*ast.AssignStmt]bool{}
	compare := func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			compared[x] = true
		case *ast.SelectorExpr:
			compared[x.Sel] = true
		}
	}
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if _, isConst := info.Uses[n].(*types.Const); isConst && compared[n] {
				break
			}
			r.use(info.Uses[n])
		case *ast.CaseClause:
			for _, e := range n.List {
				compare(e)
			}
		case *ast.SelectorExpr:
			r.selector(info, n, targets[n])
		case *ast.CompositeLit:
			r.literal(info, n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				targets[ast.Unparen(lhs)] = true
				switch {
				case defaulting[n]:
					r.written[fieldOf(info, lhs)] = true // its value is the zero's
				case n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs):
					r.write(info, lhs, constKey(info, n.Rhs[i]))
				default:
					r.write(info, lhs, "")
				}
			}
		case *ast.IfStmt:
			r.defaulted(info, n, defaulting)
		case *ast.IncDecStmt:
			targets[ast.Unparen(n.X)] = true
			r.write(info, n.X, "")
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil && n.Tok == token.ASSIGN {
					targets[ast.Unparen(e)] = true
					r.write(info, e, "")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.write(info, n.X, "")
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				r.readAll(info.Types[n.X].Type, false)
				r.readAll(info.Types[n.Y].Type, false)
				compare(n.X)
				compare(n.Y)
			}
		case *ast.CallExpr:
			if sig, ok := info.Types[n.Fun].Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					r.iface(sig.Params().At(i).Type())
				}
				if r.walkerCall(info, n.Fun) {
					r.walkedArgs(info, sig, n)
				}
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				r.iface(tv.Type)
				if m, ok := tv.Type.(*types.Map); ok {
					r.readAll(m.Key(), false) // a map compares its keys
				}
			}
		}
		return true
	})
}

// selector records the fields a selector reads and, for a pointer-method
// call on an addressable value, writes. An assignment's direct target is
// not a read.
func (r *reach) selector(info *types.Info, sel *ast.SelectorExpr, target bool) {
	s := info.Selections[sel]
	if s == nil {
		return
	}
	path := selPath(s)
	switch s.Kind() {
	case types.FieldVal:
		for i, f := range path {
			if i < len(path)-1 || !target {
				r.read[f] = true
			}
		}
	case types.MethodVal:
		for _, f := range path {
			r.read[f] = true
		}
		fn := s.Obj().(*types.Func)
		recv := fn.Type().(*types.Signature).Recv()
		if _, ptr := recv.Type().(*types.Pointer); !ptr {
			return
		}
		// The method takes the receiver's address: the embedded fields up
		// to the first pointer, and then the selected expression, are written.
		for i := len(path) - 1; i >= 0; i-- {
			if isPointer(path[i].Type()) {
				return
			}
			r.set(path[i], "")
		}
		if !isPointer(s.Recv()) {
			r.write(info, sel.X, "")
		}
	}
}

// write marks the fields an assignment target or an address-of stores to:
// the selected field and each field of the selector path that holds it by
// value, x.f.g = … writing g and f. key is the constant stored in the
// selected field ("" for any other value); an enclosing field changes only
// in part, which is not a constant.
func (r *reach) write(info *types.Info, e ast.Expr, key string) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			s := info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			path := selPath(s)
			for i := len(path) - 1; i >= 0; i-- {
				r.set(path[i], key)
				key = ""
				if i > 0 && isPointer(path[i-1].Type()) {
					return
				}
			}
			if isPointer(s.Recv()) {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// selPath is the fields a selection passes through: the embedded fields it
// promotes through and, for a field, the field itself.
func selPath(s *types.Selection) []*types.Var {
	index := s.Index()
	if s.Kind() != types.FieldVal {
		index = index[:len(index)-1] // the last index is the method's
	}
	var path []*types.Var
	t := s.Recv()
	for _, i := range index {
		st := deref(t).Underlying().(*types.Struct)
		f := st.Field(i)
		path = append(path, f.Origin())
		t = f.Type()
	}
	return path
}

// readAll marks every field of the module's structs in t read. Comparison
// and map keys stop at pointers; a standard-library call that takes any
// (fmt, encoding/json, reflect) follows them.
func (r *reach) readAll(t types.Type, deep bool) {
	if t == nil || r.readTypes[readKey{t, deep}] {
		return
	}
	r.readTypes[readKey{t, deep}] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.read[u.Field(i).Origin()] = true
			r.readAll(u.Field(i).Type(), deep)
		}
	case *types.Array:
		r.readAll(u.Elem(), deep)
	case *types.Pointer:
		if deep {
			r.readAll(u.Elem(), deep)
		}
	case *types.Slice:
		if deep {
			r.readAll(u.Elem(), deep)
		}
	case *types.Map:
		if deep {
			r.readAll(u.Key(), deep)
			r.readAll(u.Elem(), deep)
		}
	}
}

// walkers are the standard-library packages that read every field of a
// value they take as an interface.
var walkers = map[string]bool{"fmt": true, "encoding/json": true, "reflect": true}

// walkerCall reports whether a call's function is declared in a package of
// walkers.
func (r *reach) walkerCall(info *types.Info, fun ast.Expr) bool {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	o, ok := info.Uses[id].(*types.Func)
	return ok && o.Pkg() != nil && walkers[o.Pkg().Path()]
}

// walkedArgs reads every field of each argument a walker takes as an
// interface: fmt prints it, encoding/json and reflect walk it.
func (r *reach) walkedArgs(info *types.Info, sig *types.Signature, call *ast.CallExpr) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, tp := pt.(*types.TypeParam); tp || !types.IsInterface(pt) {
			continue
		}
		r.readAll(info.Types[arg].Type, true)
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
	named := map[*types.Var]bool{}
	for i, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					named[v.Origin()] = true
					r.set(v.Origin(), constKey(info, kv.Value))
				}
			}
		} else if i < st.NumFields() {
			named[st.Field(i).Origin()] = true
			r.set(st.Field(i).Origin(), constKey(info, e))
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i).Origin(); !named[f] {
			r.omitted[f] = true
		}
	}
}

// set records a write of field f: key is the constant written, "" a value
// that is not one.
func (r *reach) set(f *types.Var, key string) {
	r.written[f] = true
	if key == "" {
		r.varied[f] = true
		return
	}
	if r.values[f] == nil {
		r.values[f] = map[string]bool{}
	}
	r.values[f][key] = true
}

// defaulted records a field's default: the constant C of
// `if x.f == 0 { x.f = C }` or `if x.f < 1 { x.f = C }`, the value a
// write of zero stands for. The assignment goes in defaulting: it is not a
// value of its own.
func (r *reach) defaulted(info *types.Info, n *ast.IfStmt, defaulting map[*ast.AssignStmt]bool) {
	cond, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr)
	if !ok || !(cond.Op == token.EQL && constKey(info, cond.Y) == "0" || cond.Op == token.LSS && constKey(info, cond.Y) == "1") {
		return
	}
	f := fieldOf(info, cond.X)
	if f == nil {
		return
	}
	for _, st := range n.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 || fieldOf(info, as.Lhs[0]) != f {
			continue
		}
		if key := constKey(info, as.Rhs[0]); key != "" {
			r.defaults[f] = key
			defaulting[as] = true
		}
	}
}

// fieldOf is the field a selector expression selects, or nil.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// constKey is the value of a constant expression as check (d) compares
// it: its exact string, "nil" for nil, and "" for an expression that is
// not a constant.
func constKey(info *types.Info, e ast.Expr) string {
	tv := info.Types[e]
	switch {
	case tv.Value != nil:
		return tv.Value.ExactString()
	case tv.IsNil():
		return "nil"
	}
	return ""
}

// zeroKey is the constKey of a type's zero value; "nil" stands for the
// zero of every type that is not a basic one.
func zeroKey(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsBoolean != 0:
			return "false"
		case b.Info()&types.IsString != 0:
			return `""`
		case b.Info()&types.IsNumeric != 0:
			return "0"
		}
	}
	return "nil"
}

// oneValue is the one value every reached write gives field f, if there is
// one: constant writes, zero for a literal that omits it, and a written
// zero replaced by the field's default.
func (r *reach) oneValue(f *types.Var) (string, bool) {
	if !r.written[f] || r.varied[f] {
		return "", false
	}
	vals := map[string]bool{}
	for k := range r.values[f] {
		vals[k] = true
	}
	zero := zeroKey(f.Type())
	if r.omitted[f] {
		vals[zero] = true
	}
	if d, ok := r.defaults[f]; ok && vals[zero] {
		delete(vals, zero)
		vals[d] = true
	}
	if len(vals) != 1 {
		return "", false
	}
	for k := range vals {
		return k, true
	}
	return "", false
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
	if rel, err := filepath.Rel(r.dir, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
