// Package apiguard keeps the module free of exported declarations and option
// fields that only tests use. It has no non-test code. Its tests type-check
// every non-test package under cmd/, internal/, bench/ and examples/ and fail,
// naming the declaration, when an exported func, method, const, var or type
// has no use in that code, when an exported field of an exported *Options,
// *Config, *Spec or *Params struct is never written there, or when an
// exported field of an exported struct is written there only by its
// package's New… functions, always with the same constant. A test that needs
// such a declaration goes through the API production code uses instead, or
// keeps its helper in a _test.go file; a knob only tests turn is deleted, or
// becomes an unexported seam of its package; a parameter only its constructor
// sets becomes a constant. TestNonTestLineBudget caps the lines of non-test
// Go. TestReachability (reach_test.go) extends the first rule from exported
// names to every function: one that no command, example or benchmark run
// reaches needs a reason too.
//
// Run it with: go test ./internal/apiguard/
package apiguard

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// module is the module's path; its root is two directories up.
const module = "repro"

// roots are the trees searched for both declarations and uses: every
// directory that holds non-test Go. The runnable examples count as users.
var roots = []string{"cmd", "internal", "bench", "examples"}

// allowed lists the exported declarations that may have no use outside
// tests, each with the reason. Keys are "dir.Name" or "dir.Type.Method",
// dir being the package's directory below the module root.
var allowed = map[string]string{
	// Accessors that tests assert on: each reads a property of a fitted
	// model, a world, a generator or the catalog that production code has
	// no reason to read.
	"internal/ml/isotonic.IsMonotoneNonDecreasing": "tests assert the defining property of an isotonic fit",
	"internal/core.Lucid.ModelsRefit":              "tests assert that the Update Engine refit the models",
	"internal/trace.Helios":                        "tests assert the four Helios clusters' specs together",
	"internal/workload.Model.Domain":               "Table 1's symbol column; a test asserts every model has one",

	// Test set-up that production code never needs.
	"internal/dtrace.Recorder.SetTopK": "lucidd's Algorithm 2 parity test needs every alternative, not the top k",
	"internal/sched.OracleEstimator":   "the perfect-information estimate the tests of sched, lab, sim and chaos plug into QSSF, Horus and Lucid; ROADMAP item 14 measures the estimate-error gap against it",

	// Parked entry points.
	"internal/trace.ReadCSV": "reads tracegen's CSV output back; parked real-trace ingestion starts here",
}

// optionSuffixes name the structs whose exported fields are knobs: a type
// whose name ends in one of them holds options a caller sets.
var optionSuffixes = []string{"Options", "Config", "Spec", "Params"}

// allowedFields lists the option fields that no non-test code writes, each
// with the reason it stays. Keys are "dir.Type.Field".
var allowedFields = map[string]string{
	"internal/sim.Options.MaxHorizon":  "tests cut runs short to reach the horizon's own rules (an arrival past it, jobs it leaves unfinished); runs stop at 6× the trace window",
	"internal/sim.Options.SampleEvery": "tests move the sampling instants to put an event-engine wake-up where they need one; runs sample every 600 s",
}

// fset positions every file the guard reads. std type-checks the standard
// library from source, once for every tree the tests check.
var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
)

// pkg is one type-checked package of a tree.
type pkg struct {
	dir   string // below the tree's root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// tree type-checks a module's non-test packages. As the types.Importer of
// its own checks it loads the module's packages from source, non-test files
// only, and hands every other import to std.
type tree struct {
	root, module string
	pkgs         map[string]*pkg // import path → package
}

func (tr *tree) Import(path string) (*types.Package, error) {
	if path != tr.module && !strings.HasPrefix(path, tr.module+"/") {
		return std.Import(path)
	}
	if p := tr.pkgs[path]; p != nil {
		return p.types, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, tr.module), "/")
	bp, err := build.ImportDir(filepath.Join(tr.root, filepath.FromSlash(dir)), 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: tr}
	if p.types, err = conf.Check(path, fset, p.files, p.info); err != nil {
		return nil, err
	}
	tr.pkgs[path] = p
	return p.types, nil
}

// walkGo calls visit with the path of every non-test Go file under root's
// dirs, testdata/ excluded.
func walkGo(t *testing.T, root string, dirs []string, visit func(path string) error) {
	t.Helper()
	for _, d := range dirs {
		err := filepath.WalkDir(filepath.Join(root, d), func(path string, e fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case e.IsDir() && e.Name() == "testdata":
				return filepath.SkipDir
			case e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			return visit(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// load type-checks every package that holds non-test Go under root's dirs.
func load(t *testing.T, root, module string, dirs []string) *tree {
	t.Helper()
	tr := &tree{root: root, module: module, pkgs: map[string]*pkg{}}
	walkGo(t, root, dirs, func(path string) error {
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		_, err = tr.Import(module + "/" + filepath.ToSlash(rel))
		return err
	})
	if len(tr.pkgs) == 0 {
		t.Fatalf("no packages under %s: wrong root?", root)
	}
	return tr
}

var (
	repoOnce sync.Once
	repoTree *tree
)

// repo is the module, type-checked once for all the tests.
func repo(t *testing.T) *tree {
	t.Helper()
	repoOnce.Do(func() { repoTree = load(t, filepath.Join("..", ".."), module, roots) })
	if repoTree == nil {
		t.Fatal("the module failed to type-check")
	}
	return repoTree
}

// sorted lists the tree's packages by directory.
func (tr *tree) sorted() []*pkg {
	ps := make([]*pkg, 0, len(tr.pkgs))
	for _, p := range tr.pkgs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].dir < ps[j].dir })
	return ps
}

// decl is one exported declaration or field, and whether non-test code uses
// it: calls or names it, or, for a field, writes it (optionFields) or writes
// it other than as its constructors' one constant (fixedFields).
type decl struct {
	key  string // "dir.Name", "dir.Type.Method" or "dir.Type.Field"
	obj  types.Object
	used bool
}

// origin maps an instantiated generic method or field to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// exports lists every exported package-level func, const, var and type and
// every exported method. One is used when some non-test identifier resolves
// to it, or, for a method, when its receiver type implements an interface of
// the import closure that declares a method of its name: that is how
// String, ServeHTTP and a sim.Scheduler's methods are reached. A method's
// receiver does not use its own type, or a type whose methods are all
// reached through interfaces would count as used with no caller at all.
func exports(tr *tree) []decl {
	uses := map[types.Object]bool{}
	for _, p := range tr.pkgs {
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, o := range p.info.Uses {
			if !recv[id] {
				uses[origin(o)] = true
			}
		}
	}
	ifaces := interfaces(tr)
	var ds []decl
	for _, p := range tr.sorted() {
		sc := p.types.Scope()
		for _, name := range sc.Names() {
			o := sc.Lookup(name)
			if o.Exported() {
				ds = append(ds, decl{p.dir + "." + name, o, uses[o]})
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if !m.Exported() {
					continue
				}
				used := uses[m]
				for _, it := range ifaces[m.Name()] {
					used = used || n.TypeParams().Len() == 0 &&
						(types.Implements(n, it) || types.Implements(types.NewPointer(n), it))
				}
				ds = append(ds, decl{p.dir + "." + name + "." + m.Name(), m, used})
			}
		}
	}
	return ds
}

// interfaces indexes every non-generic package-level interface of the tree's
// import closure, and error, by the names of its methods.
func interfaces(tr *tree) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, im := range p.Imports() {
			walk(im)
		}
	}
	for _, p := range tr.sorted() {
		walk(p.types)
	}
	return byName
}

// site is one non-test write of a field: its package, the name of the
// function it is in ("" outside any) with that method's receiver type (nil
// for a plain function), and the constant it stores (nil when it stores
// none).
type site struct {
	pkg  *types.Package
	fn   string
	recv *types.TypeName
	val  constant.Value
}

// fieldWrites maps each field non-test code writes to its write sites: the
// key of a keyed composite literal, a position in an unkeyed one, the
// selector on the left of an assignment or ++/--, or a selector whose
// address is taken. Only a plain assignment or a literal stores a constant.
func fieldWrites(tr *tree) map[types.Object][]site {
	ws := map[types.Object][]site{}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				w := site{pkg: p.types}
				if fn, ok := d.(*ast.FuncDecl); ok {
					w.fn = fn.Name.Name
					if fn.Recv != nil {
						w.recv = recvType(p.info.Defs[fn.Name])
					}
				}
				add := func(o types.Object, val ast.Expr) {
					s := w
					if val != nil {
						s.val = p.info.Types[val].Value
					}
					ws[origin(o)] = append(ws[origin(o)], s)
				}
				store := func(e, val ast.Expr) {
					if sel, ok := e.(*ast.SelectorExpr); ok && p.info.Uses[sel.Sel] != nil {
						add(p.info.Uses[sel.Sel], val)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						var st *types.Struct
						if tv, ok := p.info.Types[n]; ok {
							st, _ = deref(tv.Type).Underlying().(*types.Struct)
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if k, ok := kv.Key.(*ast.Ident); ok && p.info.Uses[k] != nil {
									add(p.info.Uses[k], kv.Value)
								}
							} else if st != nil {
								add(st.Field(i), el)
							}
						}
					case *ast.AssignStmt:
						for i, l := range n.Lhs {
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								store(l, n.Rhs[i])
							} else {
								store(l, nil)
							}
						}
					case *ast.IncDecStmt:
						store(n.X, nil)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							store(n.X, nil)
						}
					}
					return true
				})
			}
		}
	}
	return ws
}

// fields lists the exported fields of the structs keep accepts, each judged
// by ok over its write sites.
func fields(tr *tree, keep func(*types.TypeName) bool, ok func(f *types.Var, ws []site) bool) []decl {
	writes := fieldWrites(tr)
	var ds []decl
	for _, p := range tr.sorted() {
		sc := p.types.Scope()
		for _, name := range sc.Names() {
			tn, isType := sc.Lookup(name).(*types.TypeName)
			if !isType || !keep(tn) {
				continue
			}
			st, isStruct := tn.Type().Underlying().(*types.Struct)
			if !isStruct {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					ds = append(ds, decl{p.dir + "." + name + "." + f.Name(), f, ok(f, writes[f])})
				}
			}
		}
	}
	return ds
}

// optionFields lists the exported fields of the exported option structs (see
// optionSuffixes). One is used when non-test code writes it. Writes in the
// option types' own methods (the normalized defaults) do not count, since
// they only fill in what no caller set.
func optionFields(tr *tree) []decl {
	return fields(tr, isOption, func(f *types.Var, ws []site) bool {
		for _, w := range ws {
			if w.recv == nil || !isOption(w.recv) {
				return true
			}
		}
		return false
	})
}

// fixedFields lists the exported fields of every exported struct. One is
// used unless each of its non-test writes is in a New… function of its own
// package, always with the same constant: a parameter its constructor fixes
// is a constant, not a field.
func fixedFields(tr *tree) []decl {
	return fields(tr, (*types.TypeName).Exported, func(f *types.Var, ws []site) bool {
		for _, w := range ws {
			if w.recv != nil || !strings.HasPrefix(w.fn, "New") || w.pkg != f.Pkg() ||
				w.val == nil || w.val.ExactString() != ws[0].val.ExactString() {
				return true
			}
		}
		return len(ws) == 0
	})
}

// isOption reports whether tn is an exported option struct.
func isOption(tn *types.TypeName) bool {
	if _, ok := tn.Type().Underlying().(*types.Struct); !ok || !tn.Exported() {
		return false
	}
	for _, s := range optionSuffixes {
		if strings.HasSuffix(tn.Name(), s) {
			return true
		}
	}
	return false
}

// recvType is a method's receiver base type: T for T, *T, T[K] and *T[K].
func recvType(o types.Object) *types.TypeName {
	if n, ok := deref(o.Type().(*types.Signature).Recv().Type()).(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// unused lists the keys of the declarations nothing outside tests uses.
func unused(ds []decl) []string {
	var keys []string
	for _, d := range ds {
		if !d.used {
			keys = append(keys, d.key)
		}
	}
	sort.Strings(keys)
	return keys
}

// check fails on every unused declaration the allowlist does not name, on
// every allowlisted one that has a use, and on every allowlist key that
// names nothing.
func check(t *testing.T, ds []decl, allow map[string]string, unusedMsg, usedMsg, noneMsg string) {
	t.Helper()
	declared := map[string]bool{}
	var bad []string
	for _, d := range ds {
		declared[d.key] = true
		if d.used {
			if allow[d.key] != "" {
				t.Errorf(usedMsg, d.key)
			}
		} else if allow[d.key] == "" {
			bad = append(bad, d.key+" ("+fset.Position(d.obj.Pos()).String()+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf(unusedMsg, b)
	}
	for k := range allow {
		if !declared[k] {
			t.Errorf(noneMsg, k)
		}
	}
}

func TestNoExportOnlyTestsCall(t *testing.T) {
	check(t, exports(repo(t)), allowed,
		"exported %s has no caller outside _test.go: delete it, or add it to the allowlist with the reason",
		"%s is on the allowlist but has a caller outside tests: take it off",
		"allowlist entry %s names no exported declaration")
}

// TestNoOptionOnlyTestsSet fails on an exported field of an exported
// options struct (see optionSuffixes) that nothing outside _test.go writes:
// a knob only tests turn.
func TestNoOptionOnlyTestsSet(t *testing.T) {
	check(t, optionFields(repo(t)), allowedFields,
		"option field %s is written only by tests: delete it, unexport it, or add it to the allowlist with the reason",
		"%s is on the allowlist but is written outside tests: take it off",
		"allowlist entry %s names no option field")
}

// TestNoFieldFixedByConstructor fails on an exported field of an exported
// struct that only its package's constructors write, always with the same
// constant: a fixed parameter dressed as a knob.
func TestNoFieldFixedByConstructor(t *testing.T) {
	for _, d := range fixedFields(repo(t)) {
		if !d.used {
			t.Errorf("field %s (%s) is only ever set to one constant by its constructor: make it an unexported constant",
				d.key, fset.Position(d.obj.Pos()))
		}
	}
}

// TestGuardFixture runs every rule over testdata/, a module whose code
// exercises what resolving by name gets wrong, and asserts the exact
// findings.
func TestGuardFixture(t *testing.T) {
	tr := load(t, "testdata", "fixture", []string{"lib", "cmd"})
	same := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("unused %s:\n got %q\nwant %q", what, got, want)
		}
	}
	same("exports", unused(exports(tr)), []string{
		"lib.Gauge.Inc",  // Counter.Inc has a caller
		"lib.Probe",      // named only by its own method's receiver
		"lib.Unused",     // a const
		"lib.Vec.Unused", // a generic type's method nothing calls
	})
	same("option fields", unused(optionFields(tr)), []string{
		"lib.Params.Depth",  // written only by Params' own method and a test
		"lib.Params.Leaves", // Config.Leaves is written
	})
	same("fixed fields", unused(fixedFields(tr)), []string{
		"lib.Pool.Size", // 4 and 2*2, each in a New… function of lib
	})
}

// budget is the most lines of non-test Go that cmd/, internal/ and examples/
// may hold.
const budget = 20232

// TestNonTestLineBudget counts the lines of non-test Go under cmd/, internal/
// and examples/ (bench/ and testdata/ excluded): the size ROADMAP.md tracks.
func TestNonTestLineBudget(t *testing.T) {
	n := 0
	walkGo(t, filepath.Join("..", ".."), []string{"cmd", "internal", "examples"}, func(path string) error {
		b, err := os.ReadFile(path)
		n += strings.Count(string(b), "\n")
		return err
	})
	if n > budget {
		t.Errorf("non-test Go is %d lines, %d over the budget of %d: a change that grows the code raises budget in the same diff and states the delta in CHANGES.md", n, n-budget, budget)
	}
}
