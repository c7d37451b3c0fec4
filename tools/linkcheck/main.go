// Command linkcheck fails when a production function of the kdash
// module is linked by no binary, or when a function marked test-only
// is linked by one.
//
// Usage (from the root of the kdash module):
//
//	go run ./tools/linkcheck
//
// It builds every main package of the kdash module and of the
// benchmark module under bench/ with inlining off (-gcflags=all=-l), so
// a function is kept in a binary exactly when the linker's dead-code
// pass reaches it, and reads the binaries' kdash text symbols with
// `go tool nm`. The programs under tools/ are not built: a development
// tool is no user of the engine. It then parses every function
// declared in a non-test file of a non-main package outside bench/ and
// tools/, and applies two rules:
//
//  1. A function no binary links must carry a //kdash:testonly
//     directive in its doc comment (a reference or fixture that tests
//     compare against or build from), sit in internal/testutil, or be
//     on the allow-list below. Otherwise delete it.
//  2. A //kdash:testonly function must not be linked by any binary: a
//     binary that calls it makes it production code, so drop the mark.
//
// An allow-list entry that names no function, or a linked one, fails
// too, so the list cannot outlive its reasons. Only the files the
// current GOOS/GOARCH builds are parsed (go list's GoFiles), since only
// those can be linked here.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// module is the root module's path; its packages' symbols start with it.
const module = "kdash"

// modules are the directories, relative to the root module, of the
// modules whose main packages are built.
var modules = []string{".", "bench"}

// testutil is test scaffolding as a whole package: exempt.
const testutil = "kdash/internal/testutil"

// allowed are unlinked functions kept as library API, each with why.
var allowed = map[string]string{
	"kdash.Index.N":                "kdash.Index is the paper's query surface for library users; no binary embeds it until ROADMAP item 15(d)",
	"kdash.Index.Restart":          "kdash.Index is the paper's query surface for library users; no binary embeds it until ROADMAP item 15(d)",
	"kdash.Index.Search":           "kdash.Index is the paper's query surface for library users; no binary embeds it until ROADMAP item 15(d)",
	"kdash.Index.TopKPersonalized": "kdash.Index is the paper's query surface for library users; no binary embeds it until ROADMAP item 15(d)",

	"kdash/internal/shard.ShardedIndex.TopKPersonalized": "library API of kdash.ShardedIndex (the server calls TopKPersonalizedContext); kdash.Index.TopKPersonalized runs on it",
	"kdash/internal/shard.ShardedIndex.Proximity":        "library API of kdash.ShardedIndex (the server calls ProximityContext)",
	"kdash/internal/shard.ShardedIndex.HomeShard":        "library API of kdash.ShardedIndex: which shard owns a node",
}

// decl is one function declaration.
type decl struct {
	key      string // importpath.Name or importpath.Recv.Name
	pos      token.Position
	testonly bool
}

// finding is one violation of the rules.
type finding struct {
	pos token.Position
	msg string
}

func main() {
	if len(os.Args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./tools/linkcheck (from the kdash module root)")
		os.Exit(2)
	}
	found, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(2)
	}
	for _, f := range found {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d finding(s)\n", len(found))
		os.Exit(1)
	}
}

// run builds the binaries, reads their symbols, parses the
// declarations and returns the findings.
func run() ([]finding, error) {
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	linked := map[string][]string{} // normalized symbol -> binaries
	for i, dir := range modules {
		bins, err := buildMains(dir, filepath.Join(tmp, fmt.Sprint(i)))
		if err != nil {
			return nil, err
		}
		for _, bin := range bins {
			syms, err := textSymbols(bin)
			if err != nil {
				return nil, err
			}
			for _, s := range syms {
				linked[s] = appendOnce(linked[s], filepath.Base(bin))
			}
		}
	}
	decls, err := parseDecls(".")
	if err != nil {
		return nil, err
	}
	return check(decls, linked, allowed), nil
}

func appendOnce(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out, nil
}

// buildMains builds every main package of the module at dir, tools/
// aside, into the directory out with inlining off and returns the
// binaries' paths.
func buildMains(dir, out string) ([]string, error) {
	list, err := goCmd(dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []string
	for _, p := range strings.Fields(string(list)) {
		if !strings.HasPrefix(p, module+"/tools/") {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no main packages in %s", dir)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"build", "-gcflags=all=-l", "-o", out + string(filepath.Separator)}, pkgs...)
	if _, err := goCmd(dir, args...); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		return nil, err
	}
	bins := make([]string, 0, len(entries))
	for _, e := range entries {
		bins = append(bins, filepath.Join(out, e.Name()))
	}
	return bins, nil
}

// textSymbols lists a binary's root-module function symbols,
// normalized.
func textSymbols(bin string) ([]string, error) {
	out, err := goCmd(".", "tool", "nm", bin)
	if err != nil {
		return nil, err
	}
	var syms []string
	for _, line := range strings.Split(string(out), "\n") {
		// "address type name", the name possibly holding spaces.
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		if s, ok := normalize(strings.Join(f[2:], " ")); ok {
			syms = append(syms, s)
		}
	}
	return syms, nil
}

// normalize strips from a linker symbol its type arguments
// ("[go.shape.int]"), pointer receivers ("(*T)") and method-value
// suffix ("-fm"), so "kdash/internal/x.(*T[go.shape.int]).M.func1"
// becomes "kdash/internal/x.T.M.func1". It reports false for a symbol
// outside the root module, or in bench/ or tools/.
func normalize(sym string) (string, bool) {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	s = strings.ReplaceAll(s, "(*", "")
	s = strings.ReplaceAll(s, ")", "")
	s = strings.TrimSuffix(s, "-fm")
	if !strings.HasPrefix(s, module+".") && !strings.HasPrefix(s, module+"/") {
		return "", false
	}
	if strings.HasPrefix(s, module+"/bench/") || strings.HasPrefix(s, module+"/tools/") {
		return "", false
	}
	return s, true
}

// splitSymbol splits a normalized symbol into its package path and the
// dot-separated name parts after it.
func splitSymbol(s string) (pkg string, parts []string) {
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return s, nil
	}
	dot += slash + 1
	return s[:dot], strings.Split(s[dot+1:], ".")
}

// linkedKeys resolves each normalized symbol to the declaration it
// belongs to — the method "T.M" when one is declared, else the
// function its first part names ("f" for the closure "f.func1") — and
// maps each such key to the binaries that link it.
func linkedKeys(decls map[string]decl, linked map[string][]string) map[string][]string {
	keys := map[string][]string{}
	for sym, bins := range linked {
		pkg, parts := splitSymbol(sym)
		if len(parts) == 0 {
			continue
		}
		key := pkg + "." + parts[0]
		if len(parts) > 1 {
			if _, ok := decls[key+"."+parts[1]]; ok {
				key += "." + parts[1]
			}
		}
		for _, b := range bins {
			keys[key] = appendOnce(keys[key], b)
		}
	}
	return keys
}

// check applies the rules to decls, given the normalized symbols the
// binaries link and the allow-list, and returns the findings sorted by
// position.
func check(decls map[string]decl, linked map[string][]string, allowed map[string]string) []finding {
	keys := linkedKeys(decls, linked)
	var found []finding
	for key, d := range decls {
		bins := keys[key]
		sort.Strings(bins)
		pkg, _ := splitSymbol(key)
		switch {
		case d.testonly && len(bins) > 0:
			found = append(found, finding{d.pos, fmt.Sprintf("%s is marked //kdash:testonly but %s links it: drop the mark", key, strings.Join(bins, ", "))})
		case allowed[key] != "" && len(bins) > 0:
			found = append(found, finding{d.pos, fmt.Sprintf("%s is on the allow-list but %s links it: drop the entry", key, strings.Join(bins, ", "))})
		case d.testonly || len(bins) > 0 || allowed[key] != "" || pkg == testutil:
		default:
			found = append(found, finding{d.pos, fmt.Sprintf("%s is linked by no binary: delete it, or mark it //kdash:testonly if tests compare against or build from it", key)})
		}
	}
	for key := range allowed {
		if _, ok := decls[key]; !ok {
			found = append(found, finding{token.Position{Filename: "tools/linkcheck/main.go"}, fmt.Sprintf("allow-list entry %s names no function: drop it", key)})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return found[i].msg < found[j].msg
	})
	return found
}

// parseDecls parses the functions declared in the non-test files the
// current platform builds, of every non-main package of the module at
// root outside bench/ and tools/.
func parseDecls(root string) (map[string]decl, error) {
	list, err := goCmd(root, "list", "-f", `{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles ","}}`, "./...")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	decls := map[string]decl{}
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 4 {
			return nil, fmt.Errorf("unexpected go list line %q", line)
		}
		path, name, dir, files := f[0], f[1], f[2], f[3]
		if name == "main" || files == "" || strings.HasPrefix(path, module+"/bench/") || strings.HasPrefix(path, module+"/tools/") {
			continue
		}
		for _, file := range strings.Split(files, ",") {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			for _, d := range fileDecls(path, fset, af) {
				decls[d.key] = d
			}
		}
	}
	return decls, nil
}

// fileDecls lists the function declarations of one file of the package
// at path.
func fileDecls(path string, fset *token.FileSet, f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		key := path + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			key = path + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		out = append(out, decl{key: key, pos: fset.Position(fd.Pos()), testonly: testonly(fd.Doc)})
	}
	return out
}

// recvName is a receiver's type name, its pointer and type parameters
// stripped.
func recvName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return fmt.Sprint(t)
}

// testonly reports whether a doc comment carries //kdash:testonly.
func testonly(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//kdash:testonly" || strings.HasPrefix(c.Text, "//kdash:testonly ") {
			return true
		}
	}
	return false
}
