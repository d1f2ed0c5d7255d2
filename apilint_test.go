package copa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiLintExempt are method names the program calls only through an
// interface (fmt.Stringer, error, json.Marshaler, http.Handler,
// http.RoundTripper, sort.Interface, heap.Interface), so no source file
// names them at a call site.
var apiLintExempt = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// apiLintAllow admits exported identifiers that only tests reference.
// Two kinds of entry only: reference oracles that tests compare the
// production path against, and entry points of documented ablations or
// gated benchmarks. Anything else test-only belongs in a _test.go file.
var apiLintAllow = map[string]string{
	// Reference oracles.
	"BeamformingIntoScalar": "precoding: per-subcarrier scalar reference for the batched BeamformingInto (kernel-equivalence tests, DESIGN §13)",
	"NullingIntoScalar":     "precoding: per-subcarrier scalar reference for the batched NullingInto (kernel-equivalence tests, DESIGN §13)",
	"SVD":                   "linalg: heap Jacobi SVD, reference for the batched Gram-eig SVD kernels (DESIGN §13)",
	"EigHermitian":          "linalg: heap Jacobi eigensolver, reference for the batched closed-form kernels (DESIGN §13)",
	"SimulateMIMO":          "phy: bit-level Monte-Carlo MIMO link, reference for the analytic post-MMSE SINR and BER model",
	"OFDMModulate":          "phy: time-domain OFDM waveform, reference for channel.Link's per-subcarrier frequency-domain model",
	"OFDMDemodulate":        "phy: time-domain OFDM waveform, reference for channel.Link's per-subcarrier frequency-domain model",
	"ConvolveCircularSafe":  "phy: time-domain multipath convolution, reference for channel.Link's per-subcarrier frequency-domain model",
	"SimulateARQ":           "mac: Monte-Carlo block-ack ARQ, reference for the goodput = rate·(1−FER) identity the rate model assumes",
	"MeanLatency":           "mac: Monte-Carlo ITS exchange simulation, reference for the analytic Table 1 overhead model",
	// Entry points of documented ablations and gated benchmarks.
	"DropOnly":              "power: Equi-SNR ablation (drop step only), BenchmarkAblationDropVsAlloc",
	"EqualizeOnly":          "power: Equi-SNR ablation (equalize step only), BenchmarkAblationDropVsAlloc",
	"JointAware":            "power: joint-MCS-aware allocation ablation, BenchmarkAblationJointAware",
	"EvaluateCSMADirectMap": "strategy: CSMA direct-mapping ablation, BenchmarkAblationCSMABaseline",
	"RunSeedRobustness":     "testbed: seed-robustness experiment, BenchmarkSeedRobustness",
	"Disabled":              "obs: uninstrumented side of the `make bench-obs` Instrumented/Disabled pairs",
	"NewFaultyTransport":    "fleet: seeded fault injection for the gated `make loadtest`, router-smoke and fleet-smoke suites",
}

// apiLintFile is one Go source file as the lint sees it.
type apiLintFile struct {
	path string // slash-separated, relative to the module root
	src  []byte
}

// apiLintFindings returns "path: Name" for every exported top-level
// identifier declared in a non-test file under internal/ whose name
// appears as an identifier in no non-test file, outside its own
// declaration, and is not in allow. Every file under perfbench/ counts as
// non-test: the benchmark module lives there and is not edited with the
// library. stale lists the allow entries no such identifier needed.
func apiLintFindings(files []apiLintFile, allow map[string]string) (findings, stale []string, err error) {
	type decl struct{ path, name string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f.path, "_test.go") && !strings.HasPrefix(f.path, "perfbench/") {
			continue
		}
		file, err := parser.ParseFile(fset, f.path, f.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		declaring := strings.HasPrefix(f.path, "internal/")
		for _, d := range file.Decls {
			names := declaredNames(d)
			if declaring {
				for _, id := range names {
					if ast.IsExported(id.Name) {
						decls = append(decls, decl{f.path, id.Name})
					}
				}
			}
			// A function's own name inside its body is recursion, not a use.
			var self string
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self && !containsIdent(names, id) {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	needed := map[string]bool{}
	for _, d := range decls {
		switch {
		case used[d.name] || apiLintExempt[d.name]:
		case allow[d.name] != "":
			needed[d.name] = true
		default:
			findings = append(findings, d.path+": "+d.name)
		}
	}
	for name := range allow {
		if !needed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(findings)
	sort.Strings(stale)
	return findings, stale, nil
}

// declaredNames lists the identifiers a top-level declaration introduces.
func declaredNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var names []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name)
			case *ast.ValueSpec:
				names = append(names, s.Names...)
			}
		}
		return names
	}
	return nil
}

func containsIdent(ids []*ast.Ident, id *ast.Ident) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestExportedAPILint keeps internal/ free of exported identifiers that
// only tests use: such an identifier is either a test helper (move it
// into the package's _test.go) or dead code. Wired into `make check`.
func TestExportedAPILint(t *testing.T) {
	var files []apiLintFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, apiLintFile{filepath.ToSlash(path), src})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	findings, stale, err := apiLintFindings(files, apiLintAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s is exported but only tests use it: move it into a _test.go file, delete it, or allowlist it in apiLintAllow with a reason", f)
	}
	for _, name := range stale {
		t.Errorf("apiLintAllow entry %q is stale: no test-only exported identifier has that name", name)
	}
}

// TestExportedAPILintRules pins what the lint counts as a use: tests do
// not, non-test code and perfbench (tests included) do, a same-named
// facade re-export does, recursion does not, and interface methods and
// allowlisted names are exempt.
func TestExportedAPILintRules(t *testing.T) {
	files := []apiLintFile{
		{"internal/p/p.go", []byte(`package p
func TestOnly() int { return TestOnly() }
func Used() int { return 1 }
func ByBench() int { return 2 }
func ReExported() int { return 3 }
func Oracle() int { return 4 }
type T struct{}
func (T) String() string { return "" }
func (T) Helper() {}
func unexported() {}
`)},
		{"internal/p/p_test.go", []byte(`package p
var _ = TestOnly() + Used() + Oracle()
func init() { T{}.Helper() }
`)},
		{"cmd/c/main.go", []byte(`package main
import "p"
func main() { _ = p.Used(); var _ p.T }
`)},
		{"facade.go", []byte(`package copa
import "p"
var ReExported = p.ReExported
`)},
		{"perfbench/x_test.go", []byte(`package perfbench
import "p"
var _ = p.ByBench()
`)},
	}
	allow := map[string]string{"Oracle": "reference", "Gone": "no longer declared"}
	findings, stale, err := apiLintFindings(files, allow)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/p/p.go: Helper", "internal/p/p.go: TestOnly"}; strings.Join(findings, "|") != strings.Join(want, "|") {
		t.Errorf("findings = %q, want %q", findings, want)
	}
	if want := []string{"Gone"}; strings.Join(stale, "|") != strings.Join(want, "|") {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}
