package main

import (
	"strings"
	"testing"

	"kdash"
)

// TestVerifyAnswer pins the -verify rule: scores are checked against the
// iterative proximities, so a swapped tie passes while a wrong score, a
// repeated node, a skipped higher-ranked node or a short answer fail.
func TestVerifyAnswer(t *testing.T) {
	// Nodes 1 and 2 tie to within 1e-16; node 4 is unreachable.
	want := []float64{0.9, 0.03, 0.03 + 1e-16, 0.02, 0}
	cases := []struct {
		name string
		got  []kdash.Result
		k    int
		err  string // "" accepts
	}{
		{"exact", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 2, Score: 0.03 + 1e-16}, {Node: 1, Score: 0.03}}, 3, ""},
		{"swapped tie", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 1, Score: 0.03}, {Node: 2, Score: 0.03 + 1e-16}}, 3, ""},
		{"reachable nodes only", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 1, Score: 0.03}, {Node: 2, Score: 0.03}, {Node: 3, Score: 0.02}}, 5, ""},
		{"wrong score", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 1, Score: 0.031}}, 2, "iterative method says"},
		{"repeated node", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 1, Score: 0.03}, {Node: 1, Score: 0.03}}, 3, "repeated"},
		{"skipped higher-ranked node", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 3, Score: 0.02}}, 2, "largest proximity"},
		{"out of range", []kdash.Result{{Node: 5, Score: 0.9}}, 1, "out of range"},
		{"short answer", []kdash.Result{{Node: 0, Score: 0.9}}, 2, "for k=2"},
		{"long answer", []kdash.Result{{Node: 0, Score: 0.9}, {Node: 1, Score: 0.03}}, 1, "for k=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := verifyAnswer(tc.got, want, tc.k)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.err != "" && err == nil:
				t.Fatal("accepted")
			case tc.err != "" && !strings.Contains(err.Error(), tc.err):
				t.Fatalf("error %q does not mention %q", err, tc.err)
			}
		})
	}
}

// TestNegativeCountsRefused: a negative -shards or -workers is a usage
// error (exit 2) naming the flag — -shards -3 used to build one shard
// silently — while zero keeps its documented meaning.
func TestNegativeCountsRefused(t *testing.T) {
	for _, flag := range []string{"shards", "workers"} {
		if err := negativeCount(count{flag, -3}); err == nil || !strings.Contains(err.Error(), "-"+flag+" -3") {
			t.Errorf("-%s -3: err = %v, want an error naming the flag", flag, err)
		}
	}
	if err := negativeCount(count{"shards", 0}, count{"workers", 0}); err != nil {
		t.Errorf("zero counts refused: %v", err)
	}
}
