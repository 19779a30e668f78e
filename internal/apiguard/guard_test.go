// Package apiguard keeps the module free of exported functions that only
// tests call. It has no non-test code: its one test parses every non-test
// Go file under cmd/, internal/, bench/ and examples/ and fails, naming the
// function, when an exported func or method has no caller in those files.
// A test that needs such a function goes through the API production code
// uses instead, or keeps its helper in a _test.go file.
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

func TestNoExportOnlyTestsCall(t *testing.T) {
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
