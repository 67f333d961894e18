// Command commitvet is the repository's one static checker: a shared
// directory walk, ignore directive and report under seven syntactic rules (no
// type information). Five fence in what internal/core's engines and metadata
// module own, and apply to the non-test files of directories named "core":
//
// Rule "tx" — the unified write-path commit engine (writeplan.go): pool
// transactions over data blocks — pool.Begin(clk), pool.Alloc(tx, size),
// pool.Free(tx, id) — may be taken ONLY by the commit engine, so the
// alloc-in-tx ordering, persist points, and crash-consistency windows stay
// auditable in one place. So may the hashtable's record mutations — the
// update cursor table.Update(clk, key) and its hinted form
// table.UpdateAt(clk, key, at), which return holding a bucket lock and an
// open transaction, and table.Put(clk, key, value) and
// table.Delete(clk, key), each a whole one — so every record change frees the
// blocks it stops naming by the one rule the engine keeps.
//
// Rule "slice" — the unified read engine (readplan.go): mapped pool bytes —
// pool.Slice(off, n), or mapping.Overwrite(off, n) for a write — may be
// dereferenced ONLY by the two engines, so the lock → quarantine gate → CRC
// verify → charge → consume order of every read (and the take → fill →
// persist order of every write) cannot be re-implemented, or forgotten, at a
// call site.
//
// Rule "go" — the wave runner (wave.go): a go statement anywhere else would
// be a second place where workers, their join, and the rule that only the
// coordinator touches the clock have to be got right.
//
// Rule "record" — the metadata module (meta.go): a selector on the
// encoding/binary or internal/wire packages (binary.LittleEndian, wire.Cursor)
// anywhere else would be a second place that knows a persisted byte. So would
// a mention of inlineTag: the inline record form is sealed and decoded there,
// and the engines see it only as a record kind and a block reference.
//
// Rule "layout" — the same module: the identifiers LayoutHierarchy and
// LayoutHashtable. The module declares them, compares them once, and hands
// the engines a layout value; any other mention is a test of which layout is
// calling (callers of core name them from outside, and in tests).
//
// Rule "charge" applies to the non-test files of every directory not named
// "sim": a clock.Advance(d) call anywhere else would be a second place that
// turns work into virtual time. internal/sim owns the cost model (charge.go);
// everything else charges through a sim.Machine method named for what it pays
// for.
//
// The call rules match a method call with the rule's name and exact argument
// count — Begin and Advance with one argument,
// Alloc/Free/Slice/Overwrite/Update/Delete with two, UpdateAt and Put with
// three (the public three-argument PMEM.Alloc dims declaration does not
// match, nor the one-argument PMEM.Delete) — whose receiver is not an
// imported package (sort.Slice is not the pool API).
//
// Rule "lease" applies to every file, tests included: a view returned by
// LoadView, LoadBlockView, or Array.View holds a lease that pins deferred
// block frees until Close, so a call whose result is discarded — a bare, go
// or defer statement, or the view assigned to the blank identifier — leaks
// the lease for the life of the process (the runtime finalizer only counts
// the leak, it does not release it). go vet's copylocks pass catches the
// complementary misuse (copying a View by value).
//
// A `//commitvet:ignore` comment on a finding's line or the line above opts
// it out.
//
// Usage: commitvet ./... (or any package directories). Exits 1 when any
// finding is reported. `make commitvet` runs it over the module.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// rule is one syntactic check: check returns the finding a node amounts to in
// a file the rule covers, or "". imports holds the file's imported package
// names (pkg.Func(...) is not a method on a pool).
type rule struct {
	name   string
	covers func(dir, base string) bool
	check  func(imports map[string]bool, n ast.Node) string
}

// coreExcept covers the non-test files of a directory named "core", except
// the files that own what the rule fences in.
func coreExcept(owners ...string) func(dir, base string) bool {
	return func(dir, base string) bool {
		return filepath.Base(dir) == "core" && !strings.HasSuffix(base, "_test.go") &&
			!slices.Contains(owners, base)
	}
}

// methodCalls flags method calls on a recv-like receiver by name and exact
// argument count.
func methodCalls(recv string, calls map[string]int, advice string) func(map[string]bool, ast.Node) string {
	return func(imports map[string]bool, n ast.Node) string {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return ""
		}
		// Only method calls count; bare identifiers (local helpers named
		// Begin/Alloc/Free) are not the pmdk pool API.
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] {
			return ""
		}
		if want, ok := calls[sel.Sel.Name]; !ok || len(call.Args) != want {
			return ""
		}
		return recv + "." + sel.Sel.Name + " " + advice
	}
}

var rules = []rule{
	{
		name:   "tx",
		covers: coreExcept("writeplan.go"),
		check: methodCalls("pool", map[string]int{"Begin": 1, "Alloc": 2, "Free": 2, "Update": 2, "UpdateAt": 3, "Put": 3, "Delete": 2},
			"outside the commit engine — route this write through writeplan.go"),
	},
	{
		name:   "slice",
		covers: coreExcept("writeplan.go", "readplan.go"),
		check: methodCalls("pool", map[string]int{"Slice": 2, "Overwrite": 2},
			"outside the read/commit engines — plan this read over readplan.go"),
	},
	{
		name:   "go",
		covers: coreExcept("wave.go"),
		check: func(_ map[string]bool, n ast.Node) string {
			if _, ok := n.(*ast.GoStmt); ok {
				return "go statement outside the wave runner — run the jobs through runWave (wave.go)"
			}
			return ""
		},
	},
	{
		name:   "record",
		covers: coreExcept("meta.go"),
		check: func(imports map[string]bool, n ast.Node) string {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] && (x.Name == "binary" || x.Name == "wire") {
					return x.Name + "." + sel.Sel.Name + " outside the metadata module — give the record form a field in meta.go"
				}
			}
			if id, ok := n.(*ast.Ident); ok && id.Name == "inlineTag" {
				return "inlineTag outside the metadata module — ask decodeRecord for the record's kind"
			}
			return ""
		},
	},
	{
		name:   "layout",
		covers: coreExcept("meta.go"),
		check: func(_ map[string]bool, n ast.Node) string {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "LayoutHierarchy" || id.Name == "LayoutHashtable") {
				return id.Name + " outside the metadata module — ask the layout value (a method or a capability fact)"
			}
			return ""
		},
	},
	{
		name: "charge",
		covers: func(dir, base string) bool {
			return filepath.Base(dir) != "sim" && !strings.HasSuffix(base, "_test.go")
		},
		check: methodCalls("clock", map[string]int{"Advance": 1},
			"outside internal/sim — charge through a sim.Machine method named for what it pays for (charge.go)"),
	},
	{
		name:   "lease",
		covers: func(string, string) bool { return true },
		check:  leakedLease,
	},
}

// viewFuncs are the view-producing call names the lease rule recognizes: the
// name of the called function or method, after stripping any generic
// instantiation and selector base.
var viewFuncs = map[string]bool{
	"LoadView":      true,
	"LoadBlockView": true,
	"View":          true,
}

// leakedLease flags a statement that discards a view-producing call's view.
func leakedLease(_ map[string]bool, n ast.Node) string {
	leak := func(e ast.Expr, how string) string {
		if name := viewCall(e); name != "" {
			return fmt.Sprintf("result of %s %s: the view's lease is never closed", name, how)
		}
		return ""
	}
	switch stmt := n.(type) {
	case *ast.ExprStmt:
		return leak(stmt.X, "discarded")
	case *ast.GoStmt:
		return leak(stmt.Call, "discarded (go statement)")
	case *ast.DeferStmt:
		return leak(stmt.Call, "discarded (defer statement)")
	case *ast.AssignStmt:
		// One call on the RHS: its first result is the view. Multiple RHS
		// values pair one-to-one with LHS names.
		for i, rhs := range stmt.Rhs {
			if i >= len(stmt.Lhs) {
				break
			}
			if id, ok := stmt.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				if msg := leak(rhs, "assigned to _"); msg != "" {
					return msg
				}
			}
		}
	}
	return ""
}

// viewCall returns the bare called name — the method or function identifier
// with any package/receiver selector and generic instantiation stripped — when
// e is a call of a view-producing function or method, else "".
func viewCall(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := call.Fun
	for {
		switch f := fn.(type) {
		case *ast.IndexExpr:
			fn = f.X
			continue
		case *ast.IndexListExpr:
			fn = f.X
			continue
		case *ast.SelectorExpr:
			fn = f.Sel
			continue
		case *ast.Ident:
			if viewFuncs[f.Name] {
				return f.Name
			}
		}
		return ""
	}
}

const ignoreDirective = "//commitvet:ignore"

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := expand(args)
	if err != nil {
		fatal(err)
	}
	findings := 0
	for _, dir := range dirs {
		found, err := checkDir(dir)
		if err != nil {
			fatal(err)
		}
		for _, f := range found {
			fmt.Fprintln(os.Stderr, f)
		}
		findings += len(found)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "commitvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// expand resolves the arguments to directories: a ./... pattern walks its
// root, skipping hidden, testdata and results directories.
func expand(args []string) (dirs []string, err error) {
	for _, a := range args {
		if strings.HasSuffix(a, "/...") {
			root := strings.TrimSuffix(a, "/...")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "results") {
						return filepath.SkipDir
					}
					dirs = append(dirs, path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			dirs = append(dirs, a)
		}
	}
	return dirs, nil
}

// checkDir applies every rule to the Go files of one directory and returns
// the findings, one "file:line:col: [rule] message" string each, sorted.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var found []string
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			found = append(found, checkFile(fset, file, dir, filepath.Base(name))...)
		}
	}
	sort.Strings(found)
	return found, nil
}

func checkFile(fset *token.FileSet, file *ast.File, dir, base string) []string {
	var active []rule
	for _, r := range rules {
		if r.covers(dir, base) {
			active = append(active, r)
		}
	}
	// Lines carrying (or preceding) an ignore directive exempt their findings.
	ignored := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), ignoreDirective) {
				line := fset.Position(c.Pos()).Line
				ignored[line] = true
				ignored[line+1] = true
			}
		}
	}
	imports := map[string]bool{}
	for _, im := range file.Imports {
		if im.Name != nil {
			imports[im.Name.Name] = true
		} else if p, err := strconv.Unquote(im.Path.Value); err == nil {
			imports[path.Base(p)] = true
		}
	}
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || ignored[fset.Position(n.Pos()).Line] {
			return true
		}
		for _, r := range active {
			if msg := r.check(imports, n); msg != "" {
				found = append(found, fmt.Sprintf("%s: [%s] %s", fset.Position(n.Pos()), r.name, msg))
			}
		}
		return true
	})
	return found
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commitvet:", err)
	os.Exit(1)
}
