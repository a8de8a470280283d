package flowrecon_test

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

// unusedExportAllowlist names exported functions and methods under
// internal/ that no non-test file calls by name but that stay exported,
// keyed "pkg.Func" or "pkg.Type.Method", one reason each.
var unusedExportAllowlist = map[string]string{
	"flows.Set.Clone":             "cross-package oracle: core's reference γ kernels (build_ref_test.go) copy rule covers with it",
	"flows.Set.SubtractInPlace":   "cross-package oracle: core's reference γ kernels derive relevant-flow sets with it",
	"flows.Set.SumRates":          "cross-package oracle: core's reference γ kernels sum relevant-flow rates with it",
	"flowtable.Table.Remaining":   "cross-package oracle: experiment's reference replay (replay_ref_test.go) reads remaining lifetimes",
	"ingest.ReadTraceJSONL":       "reader of the trace format cmd/traceinfo writes; its test and ingest's read the files back",
	"ingest.WritePcap":            "cross-package oracle: the root ingestion benchmark and ingest's tests build captures with it",
	"markov.Sparse.Row":           "test accessor: core's build tests compare transition-matrix rows",
	"telemetry.EventLog.SetClock": "test accessor: telemetry and experiment tests turn wall stamping off for byte-identical logs",
	"telemetry.Histogram.Count":   "test accessor: telemetry, core and service tests count observations",
	"workload.StepArrivals":       "cross-package oracle: core's basic-model step simulation discretizes traces with it",
}

// TestNoTestOnlyExports guards the production packages against regrowing
// code that only tests run: every exported function or method declared in
// a non-test file under internal/ (except the test-support packages
// conftest and testutil) must have its identifier used by some non-test
// file of the module outside its own declaration, or carry an allowlist
// entry saying why not. The check is by name, so a method counts as used
// when any non-test file selects a field or method of that name.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key   string
		name  string
		ident *ast.Ident
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	for _, root := range []string{".", "cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir
				}
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if dir == "internal/conftest" || dir == "internal/testutil" {
				// Test-support packages neither count as callers nor
				// are checked.
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declIdents := map[*ast.Ident]bool{}
			if strings.HasPrefix(dir, "internal/") {
				for _, fd := range f.Decls {
					fn, ok := fd.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					key := f.Name.Name + "." + fn.Name.Name
					if fn.Recv != nil {
						recv := receiverType(fn.Recv.List[0].Type)
						if !ast.IsExported(recv) {
							// A method of an unexported type is reachable
							// only through an interface.
							continue
						}
						key = f.Name.Name + "." + recv + "." + fn.Name.Name
					}
					decls = append(decls, decl{key: key, name: fn.Name.Name, ident: fn.Name})
					declIdents[fn.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
					uses[id.Name]++
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		if _, ok := unusedExportAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		unused = append(unused, d.key+" ("+fset.Position(d.ident.Pos()).String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but called by no non-test file: %s", u)
	}
	for key, reason := range unusedExportAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !allowed[key] {
			t.Errorf("stale allowlist entry %s: no unused export of that name remains", key)
		}
	}
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}
