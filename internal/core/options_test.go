package core_test

// Configuration-surface tests: Options is the one declaration of a pMEMCPY
// knob, each field has exactly one With* option (re-exported by package
// pmemcpy), and Library.Configure maps pio.Capabilities onto the Options
// fields of the same name without touching what the literal configured.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pmemcpy/internal/core"
	"pmemcpy/internal/pio"
)

// withOptions lists every With* constructor of package core. The test below
// fails if the package declares one that is missing here.
var withOptions = map[string]any{
	"WithCodec":               core.WithCodec,
	"WithLayout":              core.WithLayout,
	"WithMapSync":             core.WithMapSync,
	"WithPoolSize":            core.WithPoolSize,
	"WithPools":               core.WithPools,
	"WithStagedSerialization": core.WithStagedSerialization,
	"WithParallelism":         core.WithParallelism,
	"WithReadParallelism":     core.WithReadParallelism,
	"WithMetrics":             core.WithMetrics,
	"WithTracing":             core.WithTracing,
	"WithVerifyReads":         core.WithVerifyReads,
	"WithScrubber":            core.WithScrubber,
	"WithAsync":               core.WithAsync,
	"WithCoalesceWindow":      core.WithCoalesceWindow,
}

// nonZero sets v (a settable scalar) to a value different from its zero.
func nonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("raw")
	case reflect.Int, reflect.Int64:
		v.SetInt(2)
	default:
		t.Fatalf("no non-zero value for kind %v", v.Kind())
	}
}

// setFields applies opt to a zero Options and returns the names of the fields
// it changed.
func setFields(opt core.MmapOption) []string {
	var o core.Options
	opt.ApplyMmapOption(&o)
	var changed []string
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			changed = append(changed, v.Type().Field(i).Name)
		}
	}
	return changed
}

// withDecls returns the exported With* function names a package directory
// declares (fn) and the `WithX = core.WithX` re-exports it holds (alias).
func withDecls(t *testing.T, dir string) (fn, alias map[string]bool) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn, alias = map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && strings.HasPrefix(d.Name.Name, "With") {
						fn[d.Name.Name] = true
					}
				case *ast.ValueSpec:
					for i, name := range d.Names {
						if i >= len(d.Values) {
							break
						}
						sel, ok := d.Values[i].(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != name.Name {
							continue
						}
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" {
							alias[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return fn, alias
}

func TestOptionsDeclaredOnce(t *testing.T) {
	declared, _ := withDecls(t, ".")
	_, reexported := withDecls(t, "../..")
	for name := range declared {
		if withOptions[name] == nil {
			t.Errorf("core.%s is not covered by this test's table", name)
		}
		if !reexported[name] {
			t.Errorf("core.%s is not re-exported by package pmemcpy", name)
		}
	}

	setters := map[string][]string{} // Options field -> the options that set it
	for name, fn := range withOptions {
		if !declared[name] {
			t.Errorf("%s is in the table but not declared in package core", name)
		}
		f := reflect.ValueOf(fn)
		args := make([]reflect.Value, f.Type().NumIn())
		for i := range args {
			args[i] = reflect.New(f.Type().In(i)).Elem()
			nonZero(t, args[i])
		}
		changed := setFields(f.Call(args)[0].Interface().(core.MmapOption))
		if len(changed) != 1 {
			t.Errorf("%s sets fields %v, want exactly one", name, changed)
		}
		for _, field := range changed {
			setters[field] = append(setters[field], name)
		}
	}
	ot := reflect.TypeOf(core.Options{})
	for i := 0; i < ot.NumField(); i++ {
		field := ot.Field(i).Name
		if got := setters[field]; len(got) != 1 {
			sort.Strings(got)
			t.Errorf("Options.%s is set by %v, want exactly one With* option", field, got)
		}
	}
}

// TestLibraryConfigure is the pio.Configurable contract over every
// Capabilities field: a zero field never overwrites what the literal
// configured, a non-zero field always does, and no other field moves.
func TestLibraryConfigure(t *testing.T) {
	// literal has every knob a Capabilities can reach (and one it cannot)
	// set to a non-default value.
	literal := core.Library{
		Codec: "cbin", Parallelism: 7, ReadParallelism: 5, Metrics: true,
		VerifyReads: core.VerifySampled, Async: true, CoalesceWindow: 4, Pools: 3,
	}
	if got := literal.Configure(pio.Capabilities{}); got != pio.Library(literal) {
		t.Errorf("zero Capabilities changed the literal:\n got %+v\nwant %+v", got, literal)
	}

	ct := reflect.TypeOf(pio.Capabilities{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		t.Run(name, func(t *testing.T) {
			var c pio.Capabilities
			nonZero(t, reflect.ValueOf(&c).Elem().Field(i))
			for _, base := range []core.Library{{}, literal} {
				got := reflect.ValueOf(base.Configure(c).(core.Library))
				want := reflect.ValueOf(&base).Elem()
				// The capability lands in the Options field of the same name...
				set := reflect.ValueOf(c).Field(i)
				want.FieldByName(name).Set(set.Convert(want.FieldByName(name).Type()))
				// ...and nothing else differs from the literal.
				if got.Interface() != want.Interface() {
					t.Errorf("Configure(%+v):\n got %+v\nwant %+v", c, got, want)
				}
			}
		})
	}
}
