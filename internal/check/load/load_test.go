package load_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bulkpreload/internal/check/load"
)

func TestFindModule(t *testing.T) {
	root, path, err := load.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	if path != "bulkpreload" {
		t.Fatalf("module path = %q, want bulkpreload", path)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("returned root %s has no go.mod: %v", root, err)
	}
	// Walking up from the root itself lands on the same module.
	root2, _, err := load.FindModule(root)
	if err != nil || root2 != root {
		t.Fatalf("FindModule(root) = %s, %v; want %s", root2, err, root)
	}
}

// loadFixturePair loads the lockdeps fixture pair (svc imports store)
// through the offline loader with the testdata src root.
func loadFixturePair(t *testing.T) (store, svc *load.Package) {
	t.Helper()
	root, path, err := load.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	testdata := filepath.Join(root, "internal", "check", "testdata", "src")
	l := load.New(root, path)
	l.ExtraSrcRoots = []string{testdata}
	// Load the importer first, so a correct result can only come from
	// DependencyOrder, not input order.
	svc, err = l.LoadTarget(filepath.Join(testdata, "lockdeps", "svc"), "lockdeps/svc")
	if err != nil {
		t.Fatalf("load lockdeps/svc: %v", err)
	}
	store, err = l.LoadTarget(filepath.Join(testdata, "lockdeps", "store"), "lockdeps/store")
	if err != nil {
		t.Fatalf("load lockdeps/store: %v", err)
	}
	return store, svc
}

func TestDependencyOrder(t *testing.T) {
	store, svc := loadFixturePair(t)
	for name, input := range map[string][]*load.Package{
		"importer first":   {svc, store},
		"dependency first": {store, svc},
	} {
		got := load.DependencyOrder(input)
		if len(got) != 2 {
			t.Fatalf("%s: %d packages out, want 2", name, len(got))
		}
		if got[0].PkgPath != "lockdeps/store" || got[1].PkgPath != "lockdeps/svc" {
			t.Fatalf("%s: order = [%s %s], want [lockdeps/store lockdeps/svc]",
				name, got[0].PkgPath, got[1].PkgPath)
		}
	}
}

// TestModulePackagesSkipsNestedModules: a directory with a go.mod of
// its own is another module, so ./... must not treat it as one of this
// module's packages.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":            "module outer\n",
		"outer.go":          "package outer\n",
		"inner/inner.go":    "package inner\n",
		"nested/go.mod":     "module nested\n",
		"nested/nested.go":  "package nested\n",
		"nested/sub/sub.go": "package sub\n",
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := load.New(root, "outer").ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Types.Path())
	}
	if want := []string{"outer", "outer/inner"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ModulePackages = %v, want %v", got, want)
	}
}
