package main

import (
	"strings"
	"testing"
)

func ids(exps []experiment) string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.id
	}
	return strings.Join(out, ",")
}

// TestSelectExperiments pins -exp resolution: registry order whatever order
// the ids were typed in, and — the regression — one unknown id among known
// ones fails the whole selection instead of being dropped.
func TestSelectExperiments(t *testing.T) {
	reg := []experiment{{id: "fig2a"}, {id: "tab4"}, {id: "tab6"}}
	for _, tc := range []struct{ spec, want string }{
		{"tab4", "tab4"},
		{"tab6, FIG2A", "fig2a,tab6"},
		{"all", "fig2a,tab4,tab6"},
	} {
		got, err := selectExperiments(reg, tc.spec)
		if err != nil || ids(got) != tc.want {
			t.Errorf("-exp %q: got %q, %v; want %q", tc.spec, ids(got), err, tc.want)
		}
	}
	for _, spec := range []string{"fig2a,tabb4", "tabb4", "all,tabb4", "", "tab4,"} {
		got, err := selectExperiments(reg, spec)
		if err == nil {
			t.Errorf("-exp %q: selected %q, want an error", spec, ids(got))
		}
	}
	if _, err := selectExperiments(reg, "fig2a,tabb4,zz"); err == nil || !strings.Contains(err.Error(), `"tabb4,zz"`) {
		t.Errorf("error should name exactly the unknown ids, got %v", err)
	}
}
