// Package harness is what the end-to-end runner and the traced run
// share: building the binaries under test, generating the inputs,
// starting and stopping the server-side processes of a workload, the
// one-connection HTTP client, and the correctness oracle. It uses the
// program only through its binaries, its HTTP API and the public kdash
// package (for the oracle).
package harness

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// Root returns the checkout root: the nearest ancestor of the working
// directory that holds BENCHMARK.json.
func Root() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("harness: no BENCHMARK.json in any parent of the working directory")
		}
		dir = parent
	}
}

// BuildDir is where everything the benchmark builds or writes while it
// runs lives, apart from the result files under bench/out.
func BuildDir(root string) string { return filepath.Join(root, ".bench_build") }

// Build compiles the three binaries under test, and the traced run's own
// binary when withTrace is set, into <root>/.bench_build/bin. The go
// command's own cache makes a repeat a sub-second no-op.
func Build(root string, withTrace bool) (binDir string, err error) {
	binDir = filepath.Join(BuildDir(root), "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	if err := goBuild(root, binDir+string(filepath.Separator), "./cmd/kdash", "./cmd/kdash-server", "./cmd/kdash-worker"); err != nil {
		return "", err
	}
	if withTrace {
		if err := goBuild(filepath.Join(root, "bench"), filepath.Join(binDir, "bench-trace"), "./trace"); err != nil {
			return "", err
		}
	}
	return binDir, nil
}

func goBuild(dir, out string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", out}, pkgs...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("harness: go build %v in %s: %w", pkgs, dir, err)
	}
	return nil
}
