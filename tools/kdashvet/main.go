// Command kdashvet is the repo's custom static-analysis suite: five
// analyzers that enforce the engine's load-bearing runtime invariants at
// compile time (see docs/STATIC_ANALYSIS.md):
//
//	poolrelease   pooled values (push state, search workspaces, sparse
//	              solvers, trace recorders) reach their release on every path
//	hotalloc      //kdash:noalloc functions contain no alloc-shaped constructs
//	rofactors     //kdash:readonly factor arrays are never written outside
//	              the constructor/serialization allowlist (sealed-copy safety)
//	determinism   //kdash:deterministic call graphs avoid map iteration,
//	              wall clocks and math/rand (bit-identical solve schedules)
//	ctxcancel     //kdash:ctxloop solve loops consult a context between
//	              iterations
//
// It runs two ways:
//
//	kdashvet ./...                                  # standalone
//	go vet -vettool=$(which kdashvet) ./...         # via the go toolchain
//
// The vettool path implements the go command's unitchecker protocol
// (-V=full / -flags handshakes plus per-package vet.cfg files) and also
// covers _test.go files; the standalone path drives `go list -export`
// itself and checks non-test sources.
//
// Suppressions: //kdash:allow(analyzer) <justification> on the finding's
// line or the line above. A justification is mandatory.
package main

import (
	"fmt"
	"os"
	"strings"

	"kdash/tools/kdashvet/internal/analyzers"
	"kdash/tools/kdashvet/internal/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Toolchain handshakes, sent by cmd/go before any analysis.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			driver.PrintVersion(os.Stdout, "kdashvet")
			return 0
		case "-flags", "--flags":
			// No tool flags are forwarded from `go vet` invocations.
			fmt.Println("[]")
			return 0
		case "-h", "-help", "--help":
			usage()
			return 0
		}
	}

	// Unitchecker mode: a single vet.cfg argument from `go vet -vettool`.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		n, err := driver.RunUnitchecker(args[0], analyzers.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdashvet: %v\n", err)
			return 1
		}
		if n > 0 {
			return 2
		}
		return 0
	}

	// Standalone mode: package patterns, default ./...
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := driver.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kdashvet: %v\n", err)
		return 1
	}
	total := 0
	for _, p := range pkgs {
		diags, err := driver.Run(p, analyzers.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "kdashvet: %v\n", err)
			return 1
		}
		driver.PrintDiagnostics(os.Stderr, p, diags)
		total += len(diags)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "kdashvet: %d finding(s)\n", total)
		return 2
	}
	return 0
}

func usage() {
	fmt.Println(`kdashvet — K-dash invariant checkers

usage:
  kdashvet [packages]                      standalone (default ./...)
  go vet -vettool=/path/to/kdashvet ./...  via the go toolchain (covers tests)

analyzers: poolrelease hotalloc rofactors determinism ctxcancel
suppress:  //kdash:allow(analyzer) justification`)
}
