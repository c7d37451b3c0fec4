package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// src declares one of each shape a linker symbol has to be matched
// back to: a generic function, a function with a closure, methods on
// pointer and value receivers (one taken as a method value), a method
// of a generic type, and two functions no symbol names, one of them
// marked test-only.
const src = `package x

func Gen[T any](v T) T { return v }

func Outer() func() int { return func() int { return 1 } }

type T struct{}

func (t *T) Ptr() {}

func (t T) Val() {}

func (t *T) Bound() {}

type G[K comparable] struct{}

func (g *G[K]) Get() {}

func Dead() {}

// Ref is a test reference.
//
//kdash:testonly
func Ref() {}
`

func parseSrc(t *testing.T) map[string]decl {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]decl{}
	for _, d := range fileDecls("kdash/internal/x", fset, f) {
		decls[d.key] = d
	}
	return decls
}

func TestSymbolsMatchTheirDeclarations(t *testing.T) {
	decls := parseSrc(t)
	for _, tc := range []struct{ sym, key string }{
		{"kdash/internal/x.Gen[go.shape.int]", "kdash/internal/x.Gen"},
		{"kdash/internal/x.Gen[go.shape.struct { A []int; B map[string]int }]", "kdash/internal/x.Gen"},
		{"kdash/internal/x.Outer.func1", "kdash/internal/x.Outer"},
		{"kdash/internal/x.(*T).Bound-fm", "kdash/internal/x.T.Bound"},
		{"kdash/internal/x.(*T).Ptr", "kdash/internal/x.T.Ptr"},
		{"kdash/internal/x.T.Val", "kdash/internal/x.T.Val"},
		{"kdash/internal/x.(*T).Val", "kdash/internal/x.T.Val"}, // the pointer wrapper of a value method
		{"kdash/internal/x.(*G[go.shape.string]).Get", "kdash/internal/x.G.Get"},
		{"kdash/internal/x.(*G[go.shape.string]).Get.func2.1", "kdash/internal/x.G.Get"},
	} {
		s, ok := normalize(tc.sym)
		if !ok {
			t.Errorf("normalize(%q) dropped a root-module symbol", tc.sym)
			continue
		}
		keys := linkedKeys(decls, map[string][]string{s: {"bin"}})
		if _, ok := keys[tc.key]; !ok || len(keys) != 1 {
			t.Errorf("%q resolves to %v, want %s", tc.sym, keys, tc.key)
		}
	}
	for _, sym := range []string{"fmt.Println", "kdash/bench/trace.main", "kdash/tools/doccheck.checkFile", "type:.eq.kdash/internal/x.T"} {
		if s, ok := normalize(sym); ok {
			t.Errorf("normalize(%q) = %q, want it dropped", sym, s)
		}
	}
	if s, ok := normalize("kdash.(*Index).TopK"); !ok || s != "kdash.Index.TopK" {
		t.Errorf("normalize of a root-package method = %q, %v", s, ok)
	}
}

// TestRulesReportBothDirections links every function of src but Dead
// and Ref: Dead is reported, Ref is not — until a binary links it too.
func TestRulesReportBothDirections(t *testing.T) {
	decls := parseSrc(t)
	linked := map[string][]string{}
	for _, sym := range []string{
		"kdash/internal/x.Gen[go.shape.int]",
		"kdash/internal/x.Outer",
		"kdash/internal/x.Outer.func1",
		"kdash/internal/x.(*T).Ptr",
		"kdash/internal/x.T.Val",
		"kdash/internal/x.(*T).Bound-fm",
		"kdash/internal/x.(*G[go.shape.int]).Get",
	} {
		s, _ := normalize(sym)
		linked[s] = []string{"kdash"}
	}
	found := check(decls, linked, nil)
	if len(found) != 1 || !strings.Contains(found[0].msg, "kdash/internal/x.Dead is linked by no binary") || found[0].pos.Line != 19 {
		t.Fatalf("findings %v, want one for Dead at line 19", found)
	}

	linked["kdash/internal/x.Ref"] = []string{"kdash-server"}
	found = check(decls, linked, map[string]string{"kdash/internal/x.Dead": "kept as library API"})
	if len(found) != 1 || !strings.Contains(found[0].msg, "x.Ref is marked //kdash:testonly but kdash-server links it") {
		t.Fatalf("findings %v, want one for the linked test-only Ref", found)
	}

	found = check(decls, linked, map[string]string{"kdash/internal/x.Ptr": "stale", "kdash/internal/x.T.Ptr": "linked anyway"})
	var msgs []string
	for _, f := range found {
		msgs = append(msgs, f.msg)
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{"x.Dead is linked by no binary", "x.Ref is marked", "x.Ptr names no function", "x.T.Ptr is on the allow-list but kdash links it"} {
		if !strings.Contains(all, want) {
			t.Errorf("findings\n%s\nlack %q", all, want)
		}
	}
}
