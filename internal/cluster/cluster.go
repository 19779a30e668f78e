// Package cluster is the GPU-cluster resource substrate: nodes of GPUs
// partitioned into virtual clusters (VCs, §2.1), with consolidated exclusive
// placement, two-job GPU sharing (the only sharing degree Lucid's Indolent
// Packing permits), memory accounting for the OOM guard, and occupancy
// statistics for the utilization experiments.
//
// The package is pure bookkeeping — it knows nothing about time or job
// semantics. The simulator drives it.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoCapacity is what Allocate returns when the VC cannot host the request
// right now. Schedulers hit it for every queued job that does not fit, every
// round, so it is a sentinel rather than a formatted message; test for it
// with errors.Is.
var ErrNoCapacity = errors.New("cluster: no capacity")

// GPUID addresses one GPU.
type GPUID struct {
	Node  int
	Index int
}

// VCSpec describes one virtual cluster partition.
type VCSpec struct {
	Name  string
	Nodes int
}

// Spec describes a whole cluster.
type Spec struct {
	GPUsPerNode int // typically 8
	GPUMemMB    float64
	VCs         []VCSpec
}

// TotalGPUs returns the cluster-wide GPU count of the spec.
func (s Spec) TotalGPUs() int {
	n := 0
	for _, vc := range s.VCs {
		n += vc.Nodes * s.GPUsPerNode
	}
	return n
}

// gpu tracks the jobs resident on one device.
type gpu struct {
	jobs    []int // job IDs, ≤ maxShare
	memUsed float64
}

// node is one server.
type node struct {
	id   int
	vci  int  // its VC's index in Cluster.vcNodes, vcFree and gen
	down bool // crashed: capacity revoked until repaired
	gpus []gpu
	// free is the count of completely idle GPUs, maintained incrementally
	// by commit/Free so placement never rescans the per-GPU job lists. It
	// tracks idleness regardless of down status; freeCount applies the
	// down mask.
	free int
}

// freeCount returns 0 for a down node, which is what keeps every placement
// path (best-fit, whole-node scan, FreeGPUs) away from revoked capacity
// without any of them knowing about failures.
func (n *node) freeCount() int {
	if n.down {
		return 0
	}
	return n.free
}

// Cluster is the mutable allocation state.
type Cluster struct {
	spec    Spec
	nodes   []*node
	jobGPUs map[int][]GPUID
	jobMem  map[int]float64 // per-GPU memory reserved by the job
	// vcIdx numbers the VCs by first appearance in the spec; the per-VC
	// state is indexed by that number, so a call resolves a VC's name once.
	// vcNodes[i] lists the VC's nodes in id order. vcFree[i] counts idle
	// GPUs on its *up* nodes, so FreeGPUs is O(1) instead of a node scan
	// (elastic schedulers call it per pending job). gen[i] is its
	// generation (VCGen).
	vcIdx   map[string]int
	vcNodes [][]*node
	vcFree  []int
	gen     []uint64
	// single and shared count the GPUs hosting one job and two (Occupancy),
	// moved wherever a GPU's job list changes.
	single, shared int

	maxShare int
}

// New builds a cluster from a spec. Every VC gets its own contiguous node
// range, mirroring production partitioning.
func New(spec Spec) *Cluster {
	if spec.GPUsPerNode <= 0 {
		spec.GPUsPerNode = 8
	}
	if spec.GPUMemMB <= 0 {
		spec.GPUMemMB = 24000
	}
	c := &Cluster{
		spec:     spec,
		jobGPUs:  make(map[int][]GPUID),
		jobMem:   make(map[int]float64),
		vcIdx:    make(map[string]int),
		maxShare: 2,
	}
	id := 0
	for _, vc := range spec.VCs {
		vci, ok := c.vcIdx[vc.Name]
		if !ok {
			vci = len(c.gen)
			c.vcIdx[vc.Name] = vci
			c.vcNodes = append(c.vcNodes, nil)
			c.vcFree = append(c.vcFree, 0)
			c.gen = append(c.gen, 1)
		}
		for k := 0; k < vc.Nodes; k++ {
			n := &node{id: id, vci: vci,
				gpus: make([]gpu, spec.GPUsPerNode), free: spec.GPUsPerNode}
			c.nodes = append(c.nodes, n)
			c.vcNodes[vci] = append(c.vcNodes[vci], n)
			c.vcFree[vci] += spec.GPUsPerNode
			id++
		}
	}
	return c
}

// Spec returns the construction spec.
func (c *Cluster) Spec() Spec { return c.spec }

// TotalGPUs returns the cluster-wide GPU count.
func (c *Cluster) TotalGPUs() int { return len(c.nodes) * c.spec.GPUsPerNode }

// FreeGPUs returns the number of completely idle GPUs in the VC ("" = whole
// cluster). O(1) from the incrementally maintained per-VC index.
func (c *Cluster) FreeGPUs(vc string) int {
	if vc == "" {
		n := 0
		for _, f := range c.vcFree {
			n += f
		}
		return n
	}
	if i, ok := c.vcIdx[vc]; ok {
		return c.vcFree[i]
	}
	return 0
}

// VCIndex returns the VC's index for VCGen, or -1 for a VC the cluster does
// not have.
func (c *Cluster) VCIndex(vc string) int {
	if i, ok := c.vcIdx[vc]; ok {
		return i
	}
	return -1
}

// VCGen returns the generation of the VC at index i (VCIndex): a count that
// starts at 1 and grows whenever anything a placement in the VC reads
// changes — a GPU taken or released (exclusively or shared), a node crashed
// or repaired, a Restore. A request the VC refused is refused again for as
// long as its generation stays the same. 0 for an index out of range, which
// no generation equals.
func (c *Cluster) VCGen(i int) uint64 {
	if i < 0 || i >= len(c.gen) {
		return 0
	}
	return c.gen[i]
}

// Allocate places a job exclusively and consolidated: single-node jobs land
// on the best-fit node (fewest free GPUs that still fit, reducing
// fragmentation per §3.2); multi-node jobs take whole nodes plus a best-fit
// remainder. memPerGPU is reserved on each GPU for the OOM guard. A request
// the VC has no room for is answered ErrNoCapacity before the job's ID is
// looked up: under congestion that is most requests, and planExclusive's
// first check is O(1).
func (c *Cluster) Allocate(jobID int, vc string, n int, memPerGPU float64) ([]GPUID, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: job %d requests %d GPUs", jobID, n)
	}
	plan := c.planExclusive(vc, n)
	if plan == nil {
		return nil, ErrNoCapacity
	}
	if _, dup := c.jobGPUs[jobID]; dup {
		return nil, fmt.Errorf("cluster: job %d already allocated", jobID)
	}
	c.commit(jobID, plan, memPerGPU)
	return plan, nil
}

// planExclusive computes a consolidated placement in the VC ("" = anywhere)
// or nil.
func (c *Cluster) planExclusive(vc string, n int) []GPUID {
	if vc == "" {
		return c.scanExclusive(c.nodes, n)
	}
	// A VC with fewer idle GPUs than the request cannot host it however they
	// are spread; at high load that is the answer for most of the queue, so
	// ask the O(1) index before scanning nodes. (The whole-cluster case would
	// have to sum the index first and is not on a hot path.)
	i, ok := c.vcIdx[vc]
	if !ok || c.vcFree[i] < n {
		return nil
	}
	return c.scanExclusive(c.vcNodes[i], n)
}

// scanExclusive is planExclusive's search over nodes, in id order.
func (c *Cluster) scanExclusive(nodes []*node, n int) []GPUID {
	per := c.spec.GPUsPerNode

	if n <= per {
		var best *node
		bestFree := per + 1
		for _, nd := range nodes {
			f := nd.freeCount()
			if f >= n && f < bestFree {
				best, bestFree = nd, f
			}
		}
		if best == nil {
			return nil
		}
		return takeFree(best, n)
	}

	// Distributed job: the lowest-id whole free nodes first (nodes lists
	// them in id order, New's append order), then a best-fit remainder.
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
			if f >= rem && f < bestFree {
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

// takeFree lists the first n free GPU ids on a node (no mutation).
func takeFree(nd *node, n int) []GPUID {
	out := make([]GPUID, 0, n)
	for i := range nd.gpus {
		if len(nd.gpus[i].jobs) == 0 {
			out = append(out, GPUID{Node: nd.id, Index: i})
			if len(out) == n {
				return out
			}
		}
	}
	return nil
}

func (c *Cluster) commit(jobID int, plan []GPUID, memPerGPU float64) {
	for _, g := range plan {
		nd := c.nodes[g.Node]
		st := &nd.gpus[g.Index]
		if len(st.jobs) == 0 {
			nd.free--
			if !nd.down {
				c.vcFree[nd.vci]--
			}
		}
		c.gen[nd.vci]++
		c.recount(len(st.jobs), -1)
		st.jobs = append(st.jobs, jobID)
		c.recount(len(st.jobs), 1)
		st.memUsed += memPerGPU
	}
	c.jobGPUs[jobID] = plan
	c.jobMem[jobID] = memPerGPU
}

// CanShare reports whether AllocateShared would succeed: the partner is
// allocated, every one of its GPUs currently hosts only the partner, and
// memory headroom remains for memPerGPU more on each.
func (c *Cluster) CanShare(partnerID int, memPerGPU float64) bool {
	gpus, ok := c.jobGPUs[partnerID]
	if !ok {
		return false
	}
	for _, g := range gpus {
		st := &c.nodes[g.Node].gpus[g.Index]
		if len(st.jobs) >= c.maxShare {
			return false
		}
		if st.memUsed+memPerGPU > c.spec.GPUMemMB {
			return false
		}
	}
	return true
}

// AllocateShared packs jobID onto exactly the partner's GPU set (§3.3 rule 2
// forbids packing jobs with different GPU demands, so the sets coincide).
func (c *Cluster) AllocateShared(jobID, partnerID int, memPerGPU float64) ([]GPUID, error) {
	if _, dup := c.jobGPUs[jobID]; dup {
		return nil, fmt.Errorf("cluster: job %d already allocated", jobID)
	}
	if !c.CanShare(partnerID, memPerGPU) {
		return nil, fmt.Errorf("cluster: cannot share with job %d", partnerID)
	}
	plan := append([]GPUID(nil), c.jobGPUs[partnerID]...)
	c.commit(jobID, plan, memPerGPU)
	return plan, nil
}

// Free releases every GPU the job holds. Unknown jobs are a no-op.
func (c *Cluster) Free(jobID int) {
	gpus, ok := c.jobGPUs[jobID]
	if !ok {
		return
	}
	mem := c.jobMem[jobID]
	for _, g := range gpus {
		nd := c.nodes[g.Node]
		st := &nd.gpus[g.Index]
		c.gen[nd.vci]++
		st.memUsed -= mem
		if st.memUsed < 0 {
			st.memUsed = 0
		}
		for i, id := range st.jobs {
			if id == jobID {
				c.recount(len(st.jobs), -1)
				st.jobs = append(st.jobs[:i], st.jobs[i+1:]...)
				c.recount(len(st.jobs), 1)
				break
			}
		}
		if len(st.jobs) == 0 {
			nd.free++
			if !nd.down {
				c.vcFree[nd.vci]++
			}
		}
	}
	delete(c.jobGPUs, jobID)
	delete(c.jobMem, jobID)
}

// GPUsOf returns the job's GPU set (nil if not allocated).
func (c *Cluster) GPUsOf(jobID int) []GPUID { return c.jobGPUs[jobID] }

// Allocated reports whether the job holds GPUs.
func (c *Cluster) Allocated(jobID int) bool {
	_, ok := c.jobGPUs[jobID]
	return ok
}

// PartnerOf returns the job sharing jobID's GPUs, or -1. With maxShare = 2
// there is at most one.
func (c *Cluster) PartnerOf(jobID int) int {
	gpus, ok := c.jobGPUs[jobID]
	if !ok || len(gpus) == 0 {
		return -1
	}
	g := gpus[0]
	for _, id := range c.nodes[g.Node].gpus[g.Index].jobs {
		if id != jobID {
			return id
		}
	}
	return -1
}

// Occupancy returns how many GPUs host exactly one job and how many host
// two.
func (c *Cluster) Occupancy() (single, shared int) { return c.single, c.shared }

// recount moves the occupancy counters by d for a GPU hosting n jobs.
func (c *Cluster) recount(n, d int) {
	switch n {
	case 1:
		c.single += d
	case 2:
		c.shared += d
	}
}

// Audit validates the cluster's physical invariants and internal
// consistency, returning human-readable violation descriptions (empty =
// healthy). It is the substrate half of the simulator's InvariantChecker:
// per-GPU sharing never exceeds the two-job cap, reserved memory never
// exceeds device capacity, and the job→GPU index agrees with the per-GPU
// job lists in both directions.
func (c *Cluster) Audit() []string {
	var out []string
	held := map[int]int{} // job → GPUs referencing it in per-GPU lists
	upFree := make([]int, len(c.vcFree))
	var single, shared int
	for _, nd := range c.nodes {
		idle := 0
		for i := range nd.gpus {
			if len(nd.gpus[i].jobs) == 0 {
				idle++
			}
		}
		if idle != nd.free {
			out = append(out, fmt.Sprintf(
				"node %d free index %d disagrees with %d actually idle GPUs", nd.id, nd.free, idle))
		}
		if !nd.down {
			upFree[nd.vci] += idle
		}
		for i := range nd.gpus {
			st := &nd.gpus[i]
			switch len(st.jobs) {
			case 1:
				single++
			case 2:
				shared++
			}
			if nd.down && len(st.jobs) > 0 {
				out = append(out, fmt.Sprintf(
					"gpu %d/%d hosts %d jobs on a down node", nd.id, i, len(st.jobs)))
			}
			if len(st.jobs) > c.maxShare {
				out = append(out, fmt.Sprintf(
					"gpu %d/%d hosts %d jobs, cap %d", nd.id, i, len(st.jobs), c.maxShare))
			}
			// Tiny epsilon absorbs float accumulation from repeated
			// reserve/release cycles.
			if st.memUsed > c.spec.GPUMemMB+1e-6 {
				out = append(out, fmt.Sprintf(
					"gpu %d/%d memory %.1f MB exceeds capacity %.1f MB",
					nd.id, i, st.memUsed, c.spec.GPUMemMB))
			}
			seen := map[int]bool{}
			for _, id := range st.jobs {
				if seen[id] {
					out = append(out, fmt.Sprintf("gpu %d/%d lists job %d twice", nd.id, i, id))
				}
				seen[id] = true
				held[id]++
				if _, ok := c.jobGPUs[id]; !ok {
					out = append(out, fmt.Sprintf(
						"gpu %d/%d hosts job %d with no allocation record", nd.id, i, id))
				}
			}
		}
	}
	for id, gpus := range c.jobGPUs {
		if held[id] != len(gpus) {
			out = append(out, fmt.Sprintf(
				"job %d allocation records %d GPUs but %d GPUs host it", id, len(gpus), held[id]))
		}
		for _, g := range gpus {
			if g.Node < 0 || g.Node >= len(c.nodes) || g.Index < 0 || g.Index >= c.spec.GPUsPerNode {
				out = append(out, fmt.Sprintf("job %d holds out-of-range GPU %v", id, g))
				continue
			}
			found := false
			for _, jid := range c.nodes[g.Node].gpus[g.Index].jobs {
				if jid == id {
					found = true
					break
				}
			}
			if !found {
				out = append(out, fmt.Sprintf("job %d claims GPU %v which does not host it", id, g))
			}
		}
	}
	for _, vc := range c.spec.VCs {
		if i := c.vcIdx[vc.Name]; c.vcFree[i] != upFree[i] {
			out = append(out, fmt.Sprintf(
				"vc %q free index %d disagrees with %d actually idle up-node GPUs",
				vc.Name, c.vcFree[i], upFree[i]))
		}
	}
	if c.single != single || c.shared != shared {
		out = append(out, fmt.Sprintf(
			"occupancy counters %d single, %d shared disagree with %d and %d actual GPUs",
			c.single, c.shared, single, shared))
	}
	return out
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// NodeDown reports whether the node's capacity is currently revoked.
func (c *Cluster) NodeDown(nodeID int) bool {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return false
	}
	return c.nodes[nodeID].down
}

// JobsOn returns the sorted, deduplicated set of jobs resident on the node.
func (c *Cluster) JobsOn(nodeID int) []int {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for i := range c.nodes[nodeID].gpus {
		for _, id := range c.nodes[nodeID].gpus[i].jobs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// JobsOnGPU returns the sorted set of jobs resident on one GPU.
func (c *Cluster) JobsOnGPU(g GPUID) []int {
	if g.Node < 0 || g.Node >= len(c.nodes) || g.Index < 0 || g.Index >= c.spec.GPUsPerNode {
		return nil
	}
	out := append([]int(nil), c.nodes[g.Node].gpus[g.Index].jobs...)
	sort.Ints(out)
	return out
}

// FailNode revokes the node's capacity and returns the sorted set of jobs
// that were resident there (the caller — the chaos engine — is responsible
// for killing them and freeing their allocations, which may span other
// nodes for distributed jobs). Idempotent: failing a down node returns its
// current residents without other effect.
func (c *Cluster) FailNode(nodeID int) []int {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return nil
	}
	victims := c.JobsOn(nodeID)
	nd := c.nodes[nodeID]
	if !nd.down {
		nd.down = true
		c.vcFree[nd.vci] -= nd.free
		c.gen[nd.vci]++
	}
	return victims
}

// RepairNode returns a failed node's capacity to service. No-op on healthy
// or out-of-range nodes.
func (c *Cluster) RepairNode(nodeID int) {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return
	}
	nd := c.nodes[nodeID]
	if nd.down {
		nd.down = false
		c.vcFree[nd.vci] += nd.free
		c.gen[nd.vci]++
	}
}

// rebuildFreeIndex recomputes the per-node and per-VC idle-GPU counters and
// the occupancy counters from the ground-truth per-GPU job lists. The
// counters are maintained incrementally on every allocation path; this full
// rebuild exists for bulk state overwrites (snapshot Restore), where
// recomputing is simpler and cheaper than replaying the deltas.
func (c *Cluster) rebuildFreeIndex() {
	clear(c.vcFree)
	c.single, c.shared = 0, 0
	for _, nd := range c.nodes {
		idle := 0
		for i := range nd.gpus {
			n := len(nd.gpus[i].jobs)
			if n == 0 {
				idle++
			}
			c.recount(n, 1)
		}
		nd.free = idle
		if !nd.down {
			c.vcFree[nd.vci] += idle
		}
	}
}
