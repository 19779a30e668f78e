// Package apiguard keeps the module free of exported functions and option
// fields that only tests use. It has no non-test code. Its tests parse every
// non-test Go file under cmd/, internal/, bench/ and examples/ and fail,
// naming the declaration, when an exported func or method has no caller in
// those files, or when an exported field of an exported *Options, *Config,
// *Spec or *Params struct is never written there. A test that needs such a
// function goes through the API production code uses instead, or keeps its
// helper in a _test.go file; a knob only tests turn is deleted, or becomes
// an unexported seam of its package.
//
// Run it with: go test ./internal/apiguard/
package apiguard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// module is the import path of the module root, two directories up.
const module = "repro/"

// roots are the trees searched for both declarations and callers: every
// directory that holds non-test Go. The runnable examples count as callers.
var roots = []string{"cmd", "internal", "bench", "examples"}

// allowed lists the exported functions that may have no caller outside
// tests, each with the reason. Keys are "dir.Func" or "dir.Type.Method",
// dir being the package's directory below the module root.
var allowed = map[string]string{
	// Accessors that tests assert on: each reads a property of a fitted
	// model, a world, a generator or the catalog that production code has
	// no reason to read.
	"internal/ml/affprop.NumClusters":              "tests assert how many clusters affinity propagation finds",
	"internal/ml/dtree.Tree.NumLeaves":             "tests assert that pruning shrinks a tree",
	"internal/ml/dtree.Tree.Depth":                 "tests assert that MaxDepth caps a tree",
	"internal/ml/gam.Model.NumPairs":               "tests assert the GA²M's pair-term budget",
	"internal/ml/gam.Model.PairFeatures":           "tests assert which feature pairs the GA²M picked",
	"internal/ml/isotonic.IsMonotoneNonDecreasing": "tests assert the defining property of an isotonic fit",
	"internal/core.Lucid.ModelsRefit":              "tests assert that the Update Engine refit the models",
	"internal/trace.Generator.ClusterSpec":         "tests assert the cluster a generator builds its trace for",
	"internal/trace.Helios":                        "tests assert the four Helios clusters' specs together",
	"internal/workload.Model.Domain":               "Table 1's symbol column; a test asserts every model has one",

	// Test set-up that production code never needs.
	"internal/lab.ResetWorldCache":     "tests drop the process-wide world cache between cases",
	"internal/lucidd.NewServer":        "tests build an in-process server without cmd/lucidd's flags",
	"internal/dtrace.Recorder.SetTopK": "lucidd's Algorithm 2 parity test needs every alternative, not the top k",

	// Parked entry points.
	"internal/trace.ReadCSV": "reads tracegen's CSV output back; parked real-trace ingestion starts here",
}

// decl is one exported func or method declaration.
type decl struct {
	key string // "dir.Func" or "dir.Type.Method"
	use string // the uses key it is looked up under
	pos token.Position
}

type file struct {
	dir string
	ast *ast.File
}

// parseTree parses every non-test Go file under roots, returning each with
// its directory below the module root, and each directory's package name.
func parseTree(t *testing.T) (*token.FileSet, []file, map[string]string) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var files []file
	pkgName := map[string]string{} // dir → package clause name
	for _, r := range roots {
		err := filepath.WalkDir(filepath.Join(root, r), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(rel)
			files = append(files, file{dir, f})
			pkgName[dir] = f.Name.Name
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return fset, files, pkgName
}

func TestNoExportOnlyTestsCall(t *testing.T) {
	fset, files, pkgName := parseTree(t)

	// A package-level function is used where its package names it bare or
	// another package names it through an import ("dir.Func"). A method is
	// used wherever its name appears, since without type information any
	// x.Name may call it ("..Method").
	uses := map[string]int{}
	var decls []decl
	for _, f := range files {
		own := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !fn.Name.IsExported() {
				continue
			}
			dc := decl{key: f.dir + "." + fn.Name.Name, use: f.dir + "." + fn.Name.Name, pos: fset.Position(fn.Pos())}
			if fn.Recv != nil {
				dc.key = f.dir + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				dc.use = ".." + fn.Name.Name
			}
			decls = append(decls, dc)
		}
		imports := map[string]string{} // local name → dir
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value) // the parser has checked the literal
			if !strings.HasPrefix(path, module) {
				continue
			}
			dir := strings.TrimPrefix(path, module)
			name := pkgName[dir]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				uses[".."+n.Sel.Name]++
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					uses[imports[x.Name]+"."+n.Sel.Name]++
					return false
				}
			case *ast.Ident:
				if !own[n] {
					uses[f.dir+"."+n.Name]++
				}
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found: wrong module root?")
	}

	var unused []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.use] > 0 {
			if allowed[d.key] != "" {
				t.Errorf("%s is on the allowlist but has a caller outside tests: take it off", d.key)
			}
		} else if allowed[d.key] == "" {
			unused = append(unused, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside _test.go: delete it, or add it to the allowlist with the reason", u)
	}
	for k := range allowed {
		if !declared[k] {
			t.Errorf("allowlist entry %s names no exported declaration", k)
		}
	}
}

// optionSuffixes name the structs whose exported fields are knobs: a type
// whose name ends in one of them holds options a caller sets.
var optionSuffixes = []string{"Options", "Config", "Spec", "Params"}

// allowedFields lists the option fields that no non-test code writes, each
// with the reason it stays. Keys are "dir.Type.Field".
var allowedFields = map[string]string{
	"internal/ml/gam.Params.Interactions": "the paper's GA²M has pair terms; turning them on is a model re-baseline, and without them it is a plain GAM",
	"internal/ml/gam.Params.PairRounds":   "the boosting rounds of those pair terms, set with Interactions",
	"internal/loadgen.Options.Stop":       "lucidd's soak test stops the load from another package after a mid-run drain",
	"internal/sim.Options.MaxHorizon":     "tests cut runs short to reach the horizon's own rules (an arrival past it, jobs it leaves unfinished); runs stop at 6× the trace window",
	"internal/sim.Options.SampleEvery":    "tests move the sampling instants to put an event-engine wake-up where they need one; runs sample every 600 s",
}

// TestNoOptionOnlyTestsSet fails on an exported field of an exported
// options struct (see optionSuffixes) that nothing outside _test.go writes:
// a knob only tests turn. The check goes by name, as the function guard
// does: a field is written when a composite literal outside tests keys it
// or an assignment or ++/-- outside tests stores to a selector of its name,
// whatever the struct. Writes in the options types' own methods (the
// normalized defaults) do not count, since they only fill in what no caller
// set.
func TestNoOptionOnlyTestsSet(t *testing.T) {
	fset, files, _ := parseTree(t)

	type field struct {
		key  string // "dir.Type.Field"
		name string
		pos  token.Position
	}
	var fields []field
	isOption := map[string]bool{} // "dir.Type" of every options struct
	for _, f := range files {
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !hasOptionSuffix(ts.Name.Name) {
					continue
				}
				isOption[f.dir+"."+ts.Name.Name] = true
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields = append(fields, field{f.dir + "." + ts.Name.Name + "." + n.Name, n.Name, fset.Position(n.Pos())})
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no option fields found: wrong module root?")
	}

	written := map[string]bool{} // field name → written outside tests
	store := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			written[sel.Sel.Name] = true
		}
	}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && isOption[f.dir+"."+recvType(fn.Recv.List[0].Type)] {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								written[k.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						store(l)
					}
				case *ast.IncDecStmt:
					store(n.X)
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	var unset []string
	for _, fl := range fields {
		declared[fl.key] = true
		if written[fl.name] {
			if allowedFields[fl.key] != "" {
				t.Errorf("%s is on the allowlist but is written outside tests: take it off", fl.key)
			}
		} else if allowedFields[fl.key] == "" {
			unset = append(unset, fl.key+" ("+fl.pos.String()+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("option field %s is written only by tests: delete it, unexport it, or add it to the allowlist with the reason", u)
	}
	for k := range allowedFields {
		if !declared[k] {
			t.Errorf("allowlist entry %s names no option field", k)
		}
	}
}

func hasOptionSuffix(name string) bool {
	for _, s := range optionSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// recvType names a method receiver's base type: T for T, *T, T[K] and *T[K].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
