package cluster

import "fmt"

// GPUState is the serializable occupancy of one device. MemUsed is carried
// verbatim — it accumulates float residue over reserve/release cycles, so
// recomputing it from job records would not be bit-exact.
type GPUState struct {
	Jobs    []int   `json:"jobs,omitempty"`
	MemUsed float64 `json:"mem_used,omitempty"`
}

// NodeState is the serializable state of one server.
type NodeState struct {
	Down bool       `json:"down,omitempty"`
	GPUs []GPUState `json:"gpus"`
}

// SnapState is the complete mutable allocation state of a Cluster. The spec
// (shape, VC layout, GPU memory) is construction-time configuration
// and is deliberately not included: Restore applies a SnapState to a cluster
// rebuilt from the same spec, and validates the shapes agree.
type SnapState struct {
	Nodes   []NodeState     `json:"nodes"`
	JobGPUs map[int][]GPUID `json:"job_gpus,omitempty"`
	JobMem  map[int]float64 `json:"job_mem,omitempty"`
}

// SnapState captures the cluster's mutable state for a snapshot.
func (c *Cluster) SnapState() SnapState {
	st := SnapState{Nodes: make([]NodeState, len(c.nodes))}
	for i, nd := range c.nodes {
		ns := NodeState{Down: nd.down, GPUs: make([]GPUState, len(nd.gpus))}
		for g := range nd.gpus {
			ns.GPUs[g] = GPUState{
				Jobs:    append([]int(nil), nd.gpus[g].jobs...),
				MemUsed: nd.gpus[g].memUsed,
			}
		}
		st.Nodes[i] = ns
	}
	if len(c.jobGPUs) > 0 {
		st.JobGPUs = make(map[int][]GPUID, len(c.jobGPUs))
		for id, gpus := range c.jobGPUs {
			st.JobGPUs[id] = append([]GPUID(nil), gpus...)
		}
	}
	if len(c.jobMem) > 0 {
		st.JobMem = make(map[int]float64, len(c.jobMem))
		for id, m := range c.jobMem {
			st.JobMem[id] = m
		}
	}
	return st
}

// Restore overwrites the cluster's mutable state from a snapshot taken from
// a cluster of the identical spec. The shape must match exactly; a mismatch
// means the snapshot belongs to a different world and is rejected.
func (c *Cluster) Restore(st SnapState) error {
	if len(st.Nodes) != len(c.nodes) {
		return fmt.Errorf("cluster: snapshot has %d nodes, cluster has %d", len(st.Nodes), len(c.nodes))
	}
	for i, ns := range st.Nodes {
		if len(ns.GPUs) != len(c.nodes[i].gpus) {
			return fmt.Errorf("cluster: snapshot node %d has %d GPUs, cluster has %d",
				i, len(ns.GPUs), len(c.nodes[i].gpus))
		}
	}
	for i, ns := range st.Nodes {
		nd := c.nodes[i]
		nd.down = ns.Down
		for g := range nd.gpus {
			nd.gpus[g].jobs = append([]int(nil), ns.GPUs[g].Jobs...)
			nd.gpus[g].memUsed = ns.GPUs[g].MemUsed
		}
	}
	c.jobGPUs = make(map[int][]GPUID, len(st.JobGPUs))
	for id, gpus := range st.JobGPUs {
		c.jobGPUs[id] = append([]GPUID(nil), gpus...)
	}
	c.jobMem = make(map[int]float64, len(st.JobMem))
	for id, m := range st.JobMem {
		c.jobMem[id] = m
	}
	c.rebuildFreeIndex()
	for i := range c.gen {
		c.gen[i]++
	}
	if bad := c.Audit(); len(bad) > 0 {
		return fmt.Errorf("cluster: restored state fails audit: %s", bad[0])
	}
	return nil
}
