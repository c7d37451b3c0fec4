package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		want    []string
		unknown string // name the error must quote; "" = valid
	}{
		{exp: "all", want: []string{"all"}},
		{exp: "fig2", want: []string{"fig2"}},
		{exp: "fig3,fig4,fig5,fig6", want: []string{"fig3", "fig4", "fig5", "fig6"}},
		{exp: "fig7,fig9", want: []string{"fig7", "fig9"}},
		{exp: "fig7, fig9", unknown: " fig9"},
		{exp: "table2,csweep,ablation", want: []string{"table2", "csweep", "ablation"}},
		{exp: "fig2,bogus", unknown: "bogus"},
		{exp: "bogus,fig2", unknown: "bogus"},
		{exp: "fig2,serve", unknown: "serve"},
		{exp: "shards", unknown: "shards"},
		{exp: "updates,distributed", unknown: "updates"},
		{exp: "fig2,", unknown: ""},
		{exp: "", unknown: ""},
	} {
		got, err := parseExperiments(tc.exp)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: accepted %v, want an error", tc.exp, got)
				continue
			}
			for _, sub := range []string{`"` + tc.unknown + `"`, "fig2|fig3", "bash bench/bench.sh"} {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("%q: error %q does not mention %s", tc.exp, err, sub)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.exp, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.exp, got, tc.want)
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("%q: %s not selected (got %v)", tc.exp, name, got)
			}
		}
	}
}
