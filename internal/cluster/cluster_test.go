package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func twoVC() *Cluster {
	return New(Spec{GPUsPerNode: 8, VCs: []VCSpec{{"vcA", 2}, {"vcB", 1}}})
}

func TestTotalsAndVCs(t *testing.T) {
	c := twoVC()
	if c.TotalGPUs() != 24 {
		t.Fatalf("total = %d", c.TotalGPUs())
	}
	if got := c.FreeGPUs("vcA"); got != 16 {
		t.Fatalf("vcA free = %d", got)
	}
	if got := c.FreeGPUs(""); got != 24 {
		t.Fatalf("cluster free = %d", got)
	}
	if vcs := c.Spec().VCs; len(vcs) != 2 || vcs[0].Name != "vcA" {
		t.Fatalf("VCs = %v", vcs)
	}
}

func TestExclusiveAllocationConsolidated(t *testing.T) {
	c := twoVC()
	gpus, err := c.Allocate(1, "vcA", 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(gpus) != 4 {
		t.Fatalf("got %d GPUs", len(gpus))
	}
	node := gpus[0].Node
	for _, g := range gpus {
		if g.Node != node {
			t.Fatal("single-node job split across nodes")
		}
	}
	if c.FreeGPUs("vcA") != 12 {
		t.Fatalf("free after alloc = %d", c.FreeGPUs("vcA"))
	}
}

func TestBestFitReducesFragmentation(t *testing.T) {
	c := twoVC()
	// Occupy 6 GPUs on some node of vcA.
	if _, err := c.Allocate(1, "vcA", 6, 0); err != nil {
		t.Fatal(err)
	}
	firstNode := c.GPUsOf(1)[0].Node
	// A 2-GPU job must best-fit onto the partially used node.
	if _, err := c.Allocate(2, "vcA", 2, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.GPUsOf(2)[0].Node; got != firstNode {
		t.Fatalf("best fit chose node %d, want %d", got, firstNode)
	}
	// An 8-GPU job still fits on the untouched node.
	if _, err := c.Allocate(3, "vcA", 8, 0); err != nil {
		t.Fatal(err)
	}
}

func TestVCIsolation(t *testing.T) {
	c := twoVC()
	// vcB has one node = 8 GPUs; a 9th GPU must fail.
	if _, err := c.Allocate(1, "vcB", 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(2, "vcB", 1, 0); err == nil {
		t.Fatal("allocation in full VC succeeded")
	}
	// vcA capacity is untouched.
	if _, err := c.Allocate(3, "vcA", 16, 0); err != nil {
		t.Fatalf("vcA should still be empty: %v", err)
	}
}

func TestDistributedAllocation(t *testing.T) {
	c := New(Spec{GPUsPerNode: 8, VCs: []VCSpec{{"vc", 4}}})
	gpus, err := c.Allocate(1, "vc", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gpus) != 20 {
		t.Fatalf("got %d GPUs", len(gpus))
	}
	nodes := map[int]int{}
	for _, g := range gpus {
		nodes[g.Node]++
	}
	full := 0
	for _, cnt := range nodes {
		if cnt == 8 {
			full++
		}
	}
	if full != 2 {
		t.Fatalf("distributed job should take 2 whole nodes, took %d (%v)", full, nodes)
	}
}

func TestDistributedNeedsWholeFreeNodes(t *testing.T) {
	c := New(Spec{GPUsPerNode: 8, VCs: []VCSpec{{"vc", 2}}})
	// One GPU busy on each node → no whole free node remains.
	if _, err := c.Allocate(1, "vc", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(2, "vc", 8, 0); err != nil {
		t.Fatal(err) // 8 fits on the second node
	}
	if _, err := c.Allocate(3, "vc", 9, 0); err == nil {
		t.Fatal("9-GPU job fit without a whole free node")
	}
}

func TestSharing(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcA", 2, 8000); err != nil {
		t.Fatal(err)
	}
	if !c.CanShare(1, 8000) {
		t.Fatal("CanShare should allow a second 8 GB job on 24 GB GPUs")
	}
	gpus, err := c.AllocateShared(2, 1, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// Same GPU set.
	g1 := c.GPUsOf(1)
	for i := range gpus {
		if gpus[i] != g1[i] {
			t.Fatal("shared job not on partner's GPUs")
		}
	}
	if p := c.PartnerOf(1); p != 2 {
		t.Fatalf("PartnerOf(1) = %d", p)
	}
	if p := c.PartnerOf(2); p != 1 {
		t.Fatalf("PartnerOf(2) = %d", p)
	}
	// A third job must be rejected (two-job cap).
	if c.CanShare(1, 100) {
		t.Fatal("three-way sharing allowed")
	}
	if _, err := c.AllocateShared(3, 1, 100); err == nil {
		t.Fatal("three-way sharing succeeded")
	}
}

func TestSharingOOMGuard(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcA", 1, 16000); err != nil {
		t.Fatal(err)
	}
	if c.CanShare(1, 10000) {
		t.Fatal("16+10 GB should exceed 24 GB")
	}
	if !c.CanShare(1, 7000) {
		t.Fatal("16+7 GB fits")
	}
}

func TestFreeRestoresState(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcA", 4, 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateShared(2, 1, 5000); err != nil {
		t.Fatal(err)
	}
	c.Free(1)
	if c.Allocated(1) {
		t.Fatal("job 1 still allocated")
	}
	// Job 2 now runs exclusively on those GPUs.
	if p := c.PartnerOf(2); p != -1 {
		t.Fatalf("partner after free = %d", p)
	}
	single, shared := c.Occupancy()
	if single != 4 || shared != 0 {
		t.Fatalf("occupancy = %d/%d", single, shared)
	}
	c.Free(2)
	if c.FreeGPUs("") != 24 {
		t.Fatal("GPUs leaked")
	}
	// Double free is a no-op.
	c.Free(2)
}

func TestDoubleAllocateRejected(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcA", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(1, "vcA", 1, 0); err == nil {
		t.Fatal("double allocation accepted")
	}
	if _, err := c.AllocateShared(1, 1, 0); err == nil {
		t.Fatal("self-share accepted")
	}
	if _, err := c.Allocate(2, "vcA", 0, 0); err == nil {
		t.Fatal("zero-GPU job accepted")
	}
}

func TestOccupancy(t *testing.T) {
	c := twoVC()
	c.Allocate(1, "vcA", 3, 0)
	c.Allocate(2, "vcA", 2, 0)
	c.AllocateShared(3, 2, 0)
	single, shared := c.Occupancy()
	if single != 3 || shared != 2 {
		t.Fatalf("occupancy = %d single %d shared", single, shared)
	}
}

func TestAllocateFreeInvariant(t *testing.T) {
	// Property: any sequence of allocations followed by freeing everything
	// returns the cluster to fully free.
	check := func(sizes []uint8) bool {
		c := New(Spec{GPUsPerNode: 8, VCs: []VCSpec{{"vc", 4}}})
		var placed []int
		id := 0
		for _, s := range sizes {
			n := int(s)%8 + 1
			id++
			if _, err := c.Allocate(id, "vc", n, 100); err == nil {
				placed = append(placed, id)
			}
		}
		for _, id := range placed {
			c.Free(id)
		}
		single, shared := c.Occupancy()
		return c.FreeGPUs("") == 32 && single == 0 && shared == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVCOf(t *testing.T) {
	c := twoVC()
	gpus, _ := c.Allocate(1, "vcB", 1, 0)
	if got := c.nodes[gpus[0].Node].vci; got != c.VCIndex("vcB") {
		t.Fatalf("a vcB job landed on a node of VC %d", got)
	}
}

// TestAuditCleanAndCorrupt: Audit must stay silent on any state reachable
// through the public API and speak up when the books are cooked.
func TestAuditCleanAndCorrupt(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcA", 2, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateShared(2, 1, 1000); err != nil {
		t.Fatal(err)
	}
	if probs := c.Audit(); len(probs) != 0 {
		t.Fatalf("clean cluster audits dirty: %v", probs)
	}

	// Cook the books: a GPU hosts a job the ledger has no record of.
	c.nodes[0].gpus[0].jobs = append(c.nodes[0].gpus[0].jobs, 99)
	probs := c.Audit()
	if len(probs) == 0 {
		t.Fatal("audit missed a ghost job on a GPU")
	}

	// And the reverse: the ledger claims a GPU the device list denies.
	c2 := twoVC()
	if _, err := c2.Allocate(1, "vcA", 1, 0); err != nil {
		t.Fatal(err)
	}
	held := c2.jobGPUs[1][0]
	c2.jobGPUs[1] = append(c2.jobGPUs[1], GPUID{Node: held.Node, Index: held.Index + 1})
	if probs := c2.Audit(); len(probs) == 0 {
		t.Fatal("audit missed a ledger overclaim")
	}

	// Over-capacity sharing: three jobs on one device busts maxShare.
	c3 := twoVC()
	c3.nodes[0].gpus[0].jobs = []int{1, 2, 3}
	c3.jobGPUs[1] = []GPUID{{0, 0}}
	c3.jobGPUs[2] = []GPUID{{0, 0}}
	c3.jobGPUs[3] = []GPUID{{0, 0}}
	if probs := c3.Audit(); len(probs) == 0 {
		t.Fatal("audit missed a maxShare violation")
	}
}

// TestNoCapacityIsASentinel: a request that does not fit is the common case
// of a congested scheduling round (every queued job, every round), so the
// refusal is ErrNoCapacity itself — matched with errors.Is, never formatted,
// never allocated. The argument-validation errors keep their text.
func TestNoCapacityIsASentinel(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcB", 8, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		vc string
		n  int
	}{{"vcB", 1}, {"vcB", 9}, {"vcA", 17}, {"nowhere", 1}} {
		if _, err := c.Allocate(2, tc.vc, tc.n, 0); !errors.Is(err, ErrNoCapacity) {
			t.Errorf("%d GPUs in %q: err = %v, want ErrNoCapacity", tc.n, tc.vc, err)
		}
	}
	var err error
	if a := testing.AllocsPerRun(100, func() { _, err = c.Allocate(2, "vcB", 4, 0) }); a != 0 {
		t.Errorf("a refused allocation allocates %v times, want 0", a)
	}
	if !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
	if _, err := c.Allocate(1, "vcA", 1, 0); err == nil || errors.Is(err, ErrNoCapacity) {
		t.Errorf("double allocation: err = %v, want its own message", err)
	}
	if _, err := c.Allocate(3, "vcA", 0, 0); err == nil || errors.Is(err, ErrNoCapacity) {
		t.Errorf("zero-GPU request: err = %v, want its own message", err)
	}
}

// TestDuplicateIDCheckedAfterCapacity: Allocate asks for room before
// it looks the job's ID up. A job that already holds GPUs is refused with
// its own message wherever room exists — a VC with idle GPUs, another VC, a
// distributed request — and gets ErrNoCapacity where none does; either way
// the cluster is left as it was.
func TestDuplicateIDCheckedAfterCapacity(t *testing.T) {
	c := twoVC()
	if _, err := c.Allocate(1, "vcA", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(2, "vcB", 8, 0); err != nil {
		t.Fatal(err)
	}
	before := c.FreeGPUs("")
	for _, tc := range []struct {
		vc    string
		n     int
		noCap bool
	}{{"vcA", 1, false}, {"vcA", 6, false}, {"vcB", 1, true}, {"vcA", 14, false}, {"vcA", 15, true}} {
		_, err := c.Allocate(1, tc.vc, tc.n, 0)
		switch {
		case err == nil:
			t.Errorf("job 1 allocated twice (%d GPUs in %s)", tc.n, tc.vc)
		case tc.noCap != errors.Is(err, ErrNoCapacity):
			t.Errorf("job 1, %d GPUs in %s: err = %v, want ErrNoCapacity %v", tc.n, tc.vc, err, tc.noCap)
		}
	}
	if got := c.FreeGPUs(""); got != before || len(c.GPUsOf(1)) != 2 {
		t.Fatalf("refusals moved the books: %d idle GPUs (was %d), job 1 holds %d", got, before, len(c.GPUsOf(1)))
	}
}

// TestFreeCountShortcutAgreesWithScan: planExclusive answers "no" from the
// per-VC idle count without looking at a node. On randomized occupancy —
// exclusive, distributed and packed jobs, frees, nodes going down and coming
// back — it must return exactly what the node scan returns, for every VC and
// size, and the shortcut must actually be taken. The scan itself is held to
// oracleScan, which sorts the whole free nodes by id where scanExclusive
// trusts the node list's order; vcA is named twice, so its nodes are two
// id ranges apart.
func TestFreeCountShortcutAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := Spec{GPUsPerNode: 8,
		VCs: []VCSpec{{"vcA", 5}, {"vcB", 3}, {"vcC", 1}, {"vcA", 2}}}
	vcs := []string{"vcA", "vcB", "vcC", "", "nowhere"}
	sizes := []int{1, 2, 3, 4, 7, 8, 9, 12, 16, 17, 24, 40, 41}
	shortcuts := 0
	for round := 0; round < 20; round++ {
		c := New(spec)
		var live []int
		for step, next := 0, 1; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				if _, err := c.Allocate(next, vcs[rng.Intn(3)], sizes[rng.Intn(len(sizes))], 0); err == nil {
					live = append(live, next)
				}
				next++
			case op < 6 && len(live) > 0:
				if _, err := c.AllocateShared(next, live[rng.Intn(len(live))], 0); err == nil {
					live = append(live, next)
				}
				next++
			case op < 8 && len(live) > 0:
				k := rng.Intn(len(live))
				c.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			case op < 9:
				// Victims keep their GPUs until freed, as the engine's kill
				// path leaves them for a moment: idle-but-down must not count.
				c.FailNode(rng.Intn(c.NumNodes()))
			default:
				c.RepairNode(rng.Intn(c.NumNodes()))
			}
			for _, vc := range vcs {
				for _, n := range sizes {
					got, scan, want := c.planExclusive(vc, n), c.scanExclusive(c.nodesOf(vc), n), c.oracleScan(vc, n)
					if !reflect.DeepEqual(scan, want) {
						t.Fatalf("round %d step %d: scan(%q, %d) = %v, the oracle says %v",
							round, step, vc, n, scan, want)
					}
					if !reflect.DeepEqual(got, scan) {
						t.Fatalf("round %d step %d: plan(%q, %d) = %v, the scan says %v",
							round, step, vc, n, got, scan)
					}
					if vc != "" && c.FreeGPUs(vc) < n {
						shortcuts++
					}
				}
			}
		}
	}
	if shortcuts == 0 {
		t.Fatal("the shortcut was never taken")
	}
}

// nodesOf is the node list a placement in vc searches: every node for "",
// none for a VC the cluster does not have.
func (c *Cluster) nodesOf(vc string) []*node {
	if vc == "" {
		return c.nodes
	}
	if i, ok := c.vcIdx[vc]; ok {
		return c.vcNodes[i]
	}
	return nil
}

// oracleScan is scanExclusive as it was while placement took a GPU-generation
// preference, copied at "any generation" (pure best-fit) with its comparison
// inlined: the whole free nodes are sorted by id before the lowest are taken.
func (c *Cluster) oracleScan(vc string, n int) []GPUID {
	nodes := c.nodesOf(vc)
	per := c.spec.GPUsPerNode

	if n <= per {
		var best *node
		bestFree := per + 1
		for _, nd := range nodes {
			f := nd.freeCount()
			if f >= n && (best == nil || f < bestFree) {
				best, bestFree = nd, f
			}
		}
		if best == nil {
			return nil
		}
		return takeFree(best, n)
	}

	whole := n / per
	rem := n % per
	var fullFree []*node
	for _, nd := range nodes {
		if nd.freeCount() == per {
			fullFree = append(fullFree, nd)
		}
	}
	if len(fullFree) < whole {
		return nil
	}
	sort.Slice(fullFree, func(i, j int) bool {
		return fullFree[i].id < fullFree[j].id
	})
	plan := make([]GPUID, 0, n)
	used := map[int]bool{}
	for _, nd := range fullFree[:whole] {
		plan = append(plan, takeFree(nd, per)...)
		used[nd.id] = true
	}
	if rem > 0 {
		var best *node
		bestFree := per + 1
		for _, nd := range nodes {
			if used[nd.id] {
				continue
			}
			f := nd.freeCount()
			if f >= rem && (best == nil || f < bestFree) {
				best, bestFree = nd, f
			}
		}
		if best == nil {
			return nil
		}
		plan = append(plan, takeFree(best, rem)...)
	}
	return plan
}

// TestVCGenCountsChanges: every change a placement reads moves the generation
// of the VC it happened in and of no other, and nothing else moves it — a
// refused request, a read, a crash of a node already down, a repair of a
// healthy one. A VC named twice in the spec has one index.
func TestVCGenCountsChanges(t *testing.T) {
	c := New(Spec{GPUsPerNode: 8, VCs: []VCSpec{{"vcA", 1}, {"vcB", 1}, {"vcA", 1}}})
	a, b := c.VCIndex("vcA"), c.VCIndex("vcB")
	if a != 0 || b != 1 || c.VCIndex("vcC") != -1 || c.VCGen(-1) != 0 || c.VCGen(2) != 0 {
		t.Fatalf("indexes vcA %d vcB %d vcC %d, gens of -1 and 2: %d %d",
			a, b, c.VCIndex("vcC"), c.VCGen(-1), c.VCGen(2))
	}
	gens := func() [2]uint64 { return [2]uint64{c.VCGen(a), c.VCGen(b)} }
	if gens() != [2]uint64{1, 1} {
		t.Fatalf("a new cluster's generations are %v", gens())
	}
	step := func(what string, moved [2]bool, f func()) {
		t.Helper()
		before := gens()
		f()
		after := gens()
		for i := range after {
			if (after[i] != before[i]) != moved[i] || after[i] < before[i] {
				t.Fatalf("%s: generations %v → %v, want moved %v", what, before, after, moved)
			}
		}
	}
	none, onlyA, onlyB, both := [2]bool{}, [2]bool{true, false}, [2]bool{false, true}, [2]bool{true, true}
	must := func(_ []GPUID, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step("refused", none, func() {
		if _, err := c.Allocate(1, "vcB", 16, 0); !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("a 16-GPU request in an 8-GPU VC: %v", err)
		}
	})
	step("allocate", onlyA, func() { must(c.Allocate(1, "vcA", 2, 1000)) })
	step("allocate on the VC's second spec entry", onlyA, func() {
		gpus, err := c.Allocate(2, "vcA", 8, 0)
		must(gpus, err)
		if gpus[0].Node != 2 {
			t.Fatalf("an 8-GPU job beside a 2-GPU one went to node %d", gpus[0].Node)
		}
	})
	step("share", onlyA, func() { must(c.AllocateShared(3, 1, 1000)) })
	step("reads", none, func() {
		c.CanShare(1, 1000)
		c.PartnerOf(1)
		c.FreeGPUs("")
		c.JobsOn(0)
		c.SnapState()
		c.Audit()
	})
	step("free", onlyA, func() { c.Free(3) })
	step("free unknown", none, func() { c.Free(99) })
	step("crash", onlyB, func() { c.FailNode(1) })
	step("crash again", none, func() { c.FailNode(1) })
	step("repair", onlyB, func() { c.RepairNode(1) })
	step("repair healthy", none, func() { c.RepairNode(1) })
	st := c.SnapState()
	step("restore", both, func() {
		if err := c.Restore(st); err != nil {
			t.Fatal(err)
		}
	})
}

// occupancyScan is Occupancy as it was before the counters: a scan of every
// GPU's job list.
func occupancyScan(c *Cluster) (single, shared int) {
	for _, nd := range c.nodes {
		for i := range nd.gpus {
			switch len(nd.gpus[i].jobs) {
			case 1:
				single++
			case 2:
				shared++
			}
		}
	}
	return single, shared
}

// freeByName is the per-VC free index as it was before it moved into a
// slice: idle GPUs on up nodes keyed by VC name, each node's VC read off the
// spec's node ranges.
func freeByName(c *Cluster) map[string]int {
	var names []string
	for _, vc := range c.spec.VCs {
		for k := 0; k < vc.Nodes; k++ {
			names = append(names, vc.Name)
		}
	}
	free := map[string]int{}
	for _, nd := range c.nodes {
		for i := range nd.gpus {
			if !nd.down && len(nd.gpus[i].jobs) == 0 {
				free[names[nd.id]]++
			}
		}
	}
	return free
}

// TestCountersMatchTheScans: over random allocations, packs, frees, node
// failures (their victims freed, as the engine frees them), repairs and
// restores — into the same cluster and into a fresh one — the occupancy
// counters equal occupancyScan, every VC's free count equals freeByName, and
// Audit finds nothing. vcA is named twice, so its nodes are two id ranges
// apart and one index.
func TestCountersMatchTheScans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := Spec{GPUsPerNode: 4, VCs: []VCSpec{{"vcA", 3}, {"vcB", 2}, {"vcC", 1}, {"vcA", 1}}}
	vcs := []string{"vcA", "vcB", "vcC", "", "nowhere"}
	mems := []float64{0, 6000, 12000, 20000}
	restores := 0
	for round := 0; round < 30; round++ {
		c := New(spec)
		var live, savedLive []int
		var saved *SnapState
		drop := func(id int) {
			c.Free(id)
			if k := slices.Index(live, id); k >= 0 {
				live = slices.Delete(live, k, k+1)
			}
		}
		for step, next := 0, 1; step < 200; step++ {
			switch op := rng.Intn(12); {
			case op < 5:
				if _, err := c.Allocate(next, vcs[rng.Intn(len(vcs))], 1+rng.Intn(9), mems[rng.Intn(len(mems))]); err == nil {
					live = append(live, next)
				}
				next++
			case op < 7 && len(live) > 0:
				if _, err := c.AllocateShared(next, live[rng.Intn(len(live))], mems[rng.Intn(len(mems))]); err == nil {
					live = append(live, next)
				}
				next++
			case op < 9 && len(live) > 0:
				drop(live[rng.Intn(len(live))])
			case op < 10:
				for _, id := range c.FailNode(rng.Intn(c.NumNodes())) {
					drop(id)
				}
			case op < 11:
				c.RepairNode(rng.Intn(c.NumNodes()))
			case saved == nil:
				st := c.SnapState()
				saved, savedLive = &st, slices.Clone(live)
			default:
				if rng.Intn(2) == 0 {
					c = New(spec)
				}
				if err := c.Restore(*saved); err != nil {
					t.Fatal(err)
				}
				live, saved = slices.Clone(savedLive), nil
				restores++
			}
			single, shared := c.Occupancy()
			if ws, wsh := occupancyScan(c); single != ws || shared != wsh {
				t.Fatalf("round %d step %d: occupancy %d/%d, the scan says %d/%d", round, step, single, shared, ws, wsh)
			}
			free, total := freeByName(c), 0
			for _, n := range free {
				total += n
			}
			free[""] = total
			for _, vc := range vcs {
				if got := c.FreeGPUs(vc); got != free[vc] {
					t.Fatalf("round %d step %d: FreeGPUs(%q) = %d, the scan says %d", round, step, vc, got, free[vc])
				}
			}
			if bad := c.Audit(); len(bad) > 0 {
				t.Fatalf("round %d step %d: %v", round, step, bad)
			}
		}
	}
	if restores == 0 {
		t.Fatal("no restore was drawn")
	}
}

// TestAuditReportsDriftedCounters: a free index or an occupancy counter that
// no longer matches the GPUs' job lists is a violation.
func TestAuditReportsDriftedCounters(t *testing.T) {
	for _, cook := range []func(c *Cluster){
		func(c *Cluster) { c.single++ },
		func(c *Cluster) { c.shared-- },
		func(c *Cluster) { c.vcFree[c.VCIndex("vcB")]++ },
	} {
		c := twoVC()
		if _, err := c.Allocate(1, "vcA", 2, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AllocateShared(2, 1, 0); err != nil {
			t.Fatal(err)
		}
		cook(c)
		if len(c.Audit()) != 1 {
			t.Errorf("drifted counter reported as %v, want one violation", c.Audit())
		}
	}
}
