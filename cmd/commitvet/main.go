// Command commitvet is a small static checker for the two engines that own
// every touch of data-block storage in internal/core.
//
// Rule "tx" — the unified write-path commit engine (writeplan.go): pool
// transactions over data blocks — pool.Begin(clk), pool.Alloc(tx, size),
// pool.Free(tx, id) — may be taken ONLY by the commit engine, so the
// alloc-in-tx ordering, persist points, and crash-consistency windows stay
// auditable in one place.
//
// Rule "slice" — the unified read engine (readplan.go): mapped pool bytes —
// pool.Slice(off, n) — may be dereferenced ONLY by the two engines, so the
// lock → quarantine gate → CRC verify → charge → consume order of every read
// (and the capture → fill → persist order of every write) cannot be
// re-implemented, or forgotten, at a call site.
//
// commitvet flags any such call in a non-test internal/core file outside the
// rule's engine files.
//
// The match is syntactic (no type information): a method call with the rule's
// name and exact argument count — Begin with one argument, Alloc/Free/Slice
// with two (the public three-argument PMEM.Alloc dims declaration does not
// match) — whose receiver is not an imported package (sort.Slice is not the
// pool API). The pool-format bootstraps in core.go run before any data exists;
// they opt out with a `//commitvet:ignore` comment on the call's line or the
// line above.
//
// Usage: commitvet ./internal/core (or any package directories / ./...
// patterns). Exits 1 when any finding is reported. Wired into
// `make commitvet` and the verify pipeline.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// rule is one ownership contract: the method calls (name -> exact argument
// count) that only the engine files may make.
type rule struct {
	name   string
	calls  map[string]int
	engine map[string]bool
	advice string
}

var rules = []rule{
	{
		name:   "tx",
		calls:  map[string]int{"Begin": 1, "Alloc": 2, "Free": 2},
		engine: map[string]bool{"writeplan.go": true},
		advice: "outside the commit engine — route this write through writeplan.go",
	},
	{
		name:   "slice",
		calls:  map[string]int{"Slice": 2},
		engine: map[string]bool{"writeplan.go": true, "readplan.go": true},
		advice: "outside the read/commit engines — plan this read over readplan.go",
	},
}

const ignoreDirective = "//commitvet:ignore"

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./internal/core"}
	}
	var dirs []string
	for _, a := range args {
		if strings.HasSuffix(a, "/...") {
			root := strings.TrimSuffix(a, "/...")
			if root == "." || root == "" {
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
				fatal(err)
			}
		} else {
			dirs = append(dirs, a)
		}
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
		fmt.Fprintf(os.Stderr, "commitvet: %d call(s) outside the engine that owns them\n", findings)
		os.Exit(1)
	}
}

// checkDir applies every rule to the non-test Go files of one directory and
// returns the findings, one "file:line:col: [rule] message" string each,
// sorted.
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
			if base := filepath.Base(name); !strings.HasSuffix(base, "_test.go") {
				found = append(found, checkFile(fset, file, base)...)
			}
		}
	}
	sort.Strings(found)
	return found, nil
}

func checkFile(fset *token.FileSet, file *ast.File, base string) []string {
	// Lines carrying (or preceding) an ignore directive exempt their calls:
	// the pool-format bootstraps in core.go legitimately transact before any
	// data exists.
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
	// Imported package names: pkg.Func(...) is not a method on a pool.
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
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Only method calls on a pool-like receiver count; bare identifiers
		// (local helpers named Begin/Alloc/Free) are not the pmdk pool API.
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel || ignored[fset.Position(call.Pos()).Line] {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] {
			return true
		}
		for _, r := range rules {
			if want, ok := r.calls[sel.Sel.Name]; ok && len(call.Args) == want && !r.engine[base] {
				found = append(found, fmt.Sprintf("%s: [%s] pool.%s %s",
					fset.Position(call.Pos()), r.name, sel.Sel.Name, r.advice))
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
