// Command lucidload drives load against a live lucidd control plane and
// reports sustained req/s and latency quantiles:
//
//	lucidd -addr :8080 -shards 8 &
//	lucidload -addr http://localhost:8080 -agents 1024 -vcs 8 -duration 10s
//
// The workload simulates node agents heartbeating and pushing GPU samples
// across virtual clusters, plus job submissions and tenant-scoped schedule
// and agent queries — the traffic shape sharding exists to serve. One seed
// replays the same per-worker op streams. The repository's measured numbers
// for the same server come from bench/ (ctl_ingest, ctl_read).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running lucidd")
	agents := flag.Int("agents", 2048, "simulated node agents")
	vcs := flag.Int("vcs", 8, "virtual clusters the agents and jobs spread across")
	workers := flag.Int("workers", 8, "concurrent client goroutines")
	duration := flag.Duration("duration", 5*time.Second, "measured run length")
	ramp := flag.Duration("ramp", 0, "stagger worker starts across this window")
	ops := flag.Int("ops", 0, "per-worker op budget (0 = run for -duration)")
	seed := flag.Int64("seed", 1, "workload seed (same seed, same per-worker op streams)")
	mixSpec := flag.String("mix", loadgen.DefaultMix().String(), "op mix weights, e.g. heartbeat=8,sample=4,submit=1,schedule=1,agents=2")
	verifyAcks := flag.Bool("verify-acks", false, "after the run, GET /jobs and fail unless every 201-acked job is present")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	if *addr == "" {
		log.Fatal("lucidload: need -addr, the base URL of a running lucidd")
	}
	res, err := loadgen.Run(loadgen.Options{
		BaseURL: *addr,
		Agents:  *agents, VCs: *vcs, Workers: *workers,
		Duration: *duration, Ramp: *ramp, OpsPerWorker: *ops,
		Seed: *seed, Mix: mix,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Summary())
	printPerOp(os.Stdout, res)
	if *verifyAcks {
		if err := runVerifyAcks(*addr, res.AckedJobs); err != nil {
			log.Fatal(err)
		}
	}
}

// runVerifyAcks audits the server's ledger against the client's: every job ID
// the server 201-acknowledged during the run must appear in GET /jobs. The
// GET is itself a flush barrier on an async-ingest server, so this also
// proves the drain/visibility contract end to end over the network.
func runVerifyAcks(addr string, acked []int) error {
	resp, err := http.Get(addr + "/jobs")
	if err != nil {
		return fmt.Errorf("verify-acks: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("verify-acks: GET /jobs returned %s", resp.Status)
	}
	var jobs []struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return fmt.Errorf("verify-acks: decoding /jobs: %w", err)
	}
	have := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		have[j.ID] = true
	}
	dropped := 0
	for _, id := range acked {
		if !have[id] {
			dropped++
		}
	}
	fmt.Printf("verify-acks: acked=%d dropped=%d\n", len(acked), dropped)
	if dropped > 0 {
		return fmt.Errorf("verify-acks: %d acknowledged job(s) missing from /jobs", dropped)
	}
	return nil
}

// printPerOp writes one line per op kind, sorted by name so that two runs
// of one seed print alike.
func printPerOp(w io.Writer, res *loadgen.Result) {
	ops := make([]string, 0, len(res.PerOp))
	for op := range res.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := res.PerOp[op]
		fmt.Fprintf(w, "  %-10s count=%-8d p50=%.3fms p99=%.3fms p999=%.3fms errors=%d\n",
			op, st.Count, st.P50ms, st.P99ms, st.P999ms, st.Errors)
	}
}
