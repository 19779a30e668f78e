package apiguard

import (
	"bufio"
	"flag"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
)

// reach is the `go tool covdata func` listing reach.sh writes. Without it
// TestReachability skips.
var reach = flag.String("reach", "", "per-function coverage of the commands' runs, as reach.sh writes it")

// unreached lists the functions no run of reach.sh reaches that allowed does
// not already excuse, each with the reason it stays. A reason is one of:
// "error path" or "input path", naming the unit test that reaches it; "test
// seam" or "oracle", naming its test; or "parked", an entry point no command
// calls yet. Keys are "dir.Name" or "dir.Type.Method", as in allowed.
var unreached = map[string]string{
	"internal/job.State.String":             "error path: invariant violations name a job's state; sim's TestInvariantsCatchBrokenResidentSet reaches it",
	"internal/sim.InvariantChecker.violate": "error path: sim's TestInvariantsCatchBrokenResidentSet reaches it",
	"internal/snap.WAL.unstage":             "error path: a failed WAL write; snap's TestFailedWriteDropsTheStagedRecords reaches it",
	"internal/dtrace.Recorder.SnapState":    "input path: a snapshot of a run that records a decision trace; lab's TestSnapshotResumeMatchesGolden reaches it",
	"internal/dtrace.Recorder.SetState":     "input path: the resume of such a snapshot; lab's TestSnapshotResumeMatchesGolden reaches it",
	"internal/feat.fillInt32":               "input path: a lineage long enough for its caches to go stale; feat's TestRefitCachesStayBounded reaches it",
	"internal/ml/dtree.maxFeature":          "input path: the importances of a tree fit without feature names; dtree's TestFeatureImportancesWithoutNames reaches it",
	"internal/ml/dtree.collapse":            "input path: a pruning alpha that collapses a split; dtree's TestPruningShrinksTree reaches it",
	"internal/ml/dtree.mergeCounts":         "input path: collapse's class histogram; dtree's TestPruningShrinksTree reaches it",
	"internal/ml/textdist.dp":               "input path: a non-ASCII name, or one past 64 bytes; textdist's TestUnicode reaches it",
	"internal/ml/textdist.min3":             "input path: dp's cell; textdist's TestUnicode reaches it",
}

// unreachedKinds are the reasons an unreached function may give.
var unreachedKinds = []string{"error path: ", "input path: ", "test seam: ", "oracle: ", "parked: "}

// TestReachability fails on every function under cmd/, internal/ or
// examples/ that no run of reach.sh reaches, unless allowed or unreached
// gives the reason it stays (a method is also excused by its type's allowed
// entry); on every function either list names that a run does reach; and on
// every unreached key that names no function. Run it with
//
//	bash internal/apiguard/reach.sh OUT
//	go test ./internal/apiguard/ -run TestReachability -reach OUT/func.txt
func TestReachability(t *testing.T) {
	if *reach == "" {
		t.Skip("no -reach listing: run reach.sh first")
	}
	f, err := os.Open(*reach)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]bool{}
	var bad []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// repro/internal/core/binder.go:24:	PackMode.String	0.0%
		fs := strings.Fields(sc.Text())
		if len(fs) != 3 || !strings.HasPrefix(fs[0], module+"/") {
			continue
		}
		dir := path.Dir(strings.TrimPrefix(strings.SplitN(fs[0], ":", 2)[0], module+"/"))
		if !strings.HasPrefix(dir, "cmd/") && !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "examples/") {
			continue
		}
		key := dir + "." + strings.TrimPrefix(fs[1], "*")
		listed[key] = true
		why := allowed[key] + unreached[key]
		if fs[2] != "0.0%" {
			if why != "" {
				t.Errorf("%s is listed as unreached, but a run reaches it (%s): take it off", key, fs[2])
			}
			continue
		}
		if why == "" {
			why = allowed[typeKey(key)]
		}
		if why == "" {
			bad = append(bad, key+" ("+strings.TrimSuffix(fs[0], ":")+")")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(listed) == 0 {
		t.Fatalf("%s lists no function of the module", *reach)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("no run reaches %s: delete it, move it into _test.go if it is a test's helper, or list it in unreached with the reason", b)
	}
	for k, why := range unreached {
		if !listed[k] {
			t.Errorf("unreached entry %s names no function", k)
		}
		if !hasKind(why) {
			t.Errorf("unreached entry %s: reason %q starts with none of %q", k, why, unreachedKinds)
		}
	}
}

// typeKey is a method key's "dir.Type", or "" for a function's key.
func typeKey(key string) string {
	i := strings.LastIndex(key, ".")
	if strings.Count(key[strings.LastIndex(key, "/")+1:], ".") < 2 {
		return ""
	}
	return key[:i]
}

func hasKind(why string) bool {
	for _, k := range unreachedKinds {
		if strings.HasPrefix(why, k) {
			return true
		}
	}
	return false
}
