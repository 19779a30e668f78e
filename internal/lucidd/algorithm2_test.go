package lucidd

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestScheduleEqualsSimulatorQueue holds the daemon to the simulator: fed the
// same jobs, both order them by one Algorithm 2 and explain the order alike.
//
// Per seed, N random jobs — a history job's name and user, a VC, a GPU demand,
// a catalog configuration and its AMP flag — go to a 4-shard daemon, each with
// minSamples samples of its configuration's profile. The same jobs, under the
// daemon's IDs and with Submit 0, go to core.Lucid on static models (the
// daemon's own analyzer and estimator, a throughput model from its history
// month) with no profiling partition, where every job is observed on the fly
// with that same profile. Then:
//   - every job's estimate is bit-equal on both sides;
//   - every daemon job's cached key is the simulator's: its ActOrder score,
//     its Submit, its ID;
//   - /schedule lists the jobs in the order of the first round's ActOrder
//     event (head, then alternatives: the simulator's recorder keeps all N);
//   - the ActOrder event that /schedule recorded is the simulator's cut to the
//     daemon's top K — reason, head, score and every alternative's job and
//     score, bit for bit.
//
// Each seed draws from a small pool of names, configurations and demands, so
// equal keys occur on one shard and across shards, and profiling moves
// estimates: the stream must show both.
func TestScheduleEqualsSimulatorQueue(t *testing.T) {
	if err := trainShared(); err != nil {
		t.Fatal(err)
	}
	hist := trace.NewGenerator(historySpec()).Emit(0)
	tp, err := core.TrainThroughputModel(hist.Jobs, hist.Days)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var world cluster.Spec
	vcs := make([]string, 8)
	for i := range vcs {
		vcs[i] = fmt.Sprint("vc-", i)
		world.VCs = append(world.VCs, cluster.VCSpec{Name: vcs[i], Nodes: 2})
	}
	catalog := workload.AllConfigs()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewServerWith(Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		users := make([]*job.Job, 30) // each a (name, user) pair of the history month
		for i := range users {
			users[i] = hist.Jobs[rng.Intn(len(hist.Jobs))]
		}
		configs := make([]workload.Config, 8)
		for i := range configs {
			configs[i] = catalog[rng.Intn(len(catalog))]
		}
		jobs := make([]*job.Job, n)
		submitEst := map[int]float64{}
		for i := range jobs {
			u, c := users[rng.Intn(len(users))], configs[rng.Intn(len(configs))]
			gpus := 1 << rng.Intn(4)
			body, _ := json.Marshal(map[string]any{"name": u.Name, "user": u.User,
				"vc": vcs[rng.Intn(len(vcs))], "gpus": gpus, "amp": c.AMP})
			rec := do(t, s, http.MethodPost, "/jobs", string(body))
			var js jobState
			if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &js) != nil {
				t.Fatalf("seed %d: submit: %d: %s", seed, rec.Code, rec.Body)
			}
			submitEst[js.ID] = js.EstSec
			jobs[i] = job.New(js.ID, js.Name, js.User, js.VC, gpus, 0, 3600, c)
			p := c.Profile()
			sample := fmt.Sprintf(`{"job":%d,"gpu_util":%v,"gpu_mem_mb":%v,"gpu_mem_util":%v}`,
				js.ID, p.GPUUtil, p.GPUMemMB, p.GPUMemUtil)
			for k := 0; k < minSamples; k++ {
				if rec := do(t, s, http.MethodPost, "/metrics", sample); rec.Code != http.StatusOK {
					t.Fatalf("seed %d: sample: %d: %s", seed, rec.Code, rec.Body)
				}
			}
		}
		var sched []jobState
		if err := json.Unmarshal([]byte(get(t, s, "/schedule")), &sched); err != nil {
			t.Fatal(err)
		}
		var daemon struct{ Events []dtrace.Event }
		if err := json.Unmarshal([]byte(get(t, s, "/trace")), &daemon); err != nil {
			t.Fatal(err)
		}

		models := &core.Models{Analyzer: training.analyzer, Estimator: training.est.Clone(),
			Throughput: tp.Clone(), History: hist.Jobs}
		cfg := core.DefaultConfig()
		cfg.UpdateIntervalSec = 0
		rec := dtrace.New()
		rec.SetTopK(n)
		sm := sim.New(&trace.Trace{Name: fmt.Sprint("one-algorithm-2-", seed), Cluster: world, Jobs: jobs, Days: 1},
			core.New(models, cfg), sim.Options{DecisionTrace: rec})
		sm.RunUntil(60)
		simEv := firstOrder(rec.Events())
		if simEv == nil || len(simEv.Alternatives) != n-1 {
			t.Fatalf("seed %d: the simulator's first round ordered no queue of %d jobs: %+v", seed, n, simEv)
		}

		// The simulator's walk is its ActOrder head, then its alternatives,
		// each with its score.
		order := []int{simEv.Job}
		score := map[int]float64{simEv.Job: simEv.Score}
		for _, a := range simEv.Alternatives {
			order = append(order, a.Job)
			score[a.Job] = a.Score
		}
		if len(sched) != n {
			t.Fatalf("seed %d: /schedule lists %d jobs, want %d", seed, len(sched), n)
		}
		estOf := map[int]float64{}
		for i, js := range sched {
			if js.ID != order[i] {
				t.Fatalf("seed %d: /schedule[%d] is job %d, the simulator's queue has job %d", seed, i, js.ID, order[i])
			}
			estOf[js.ID] = js.EstSec
		}
		// Estimates bit for bit (the simulator's estimator caches what its
		// queue was keyed by), and keys.
		reestimated := 0
		for _, j := range jobs {
			if got, want := estOf[j.ID], models.Estimator.EstimateSec(j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: job %d: the daemon estimates %v s, the simulator %v s", seed, j.ID, got, want)
			}
			if estOf[j.ID] != submitEst[j.ID] {
				reestimated++
			}
			sh, _ := s.shardOfJob(j.ID)
			sh.mu.Lock()
			got := sh.jobs[j.ID].key
			sh.mu.Unlock()
			if want := (core.Key{Prio: score[j.ID], Submit: j.Submit, ID: j.ID}); got != want {
				t.Fatalf("seed %d: the daemon keys job %d %+v, the simulator %+v", seed, j.ID, got, want)
			}
		}

		// The same "why": the daemon's event is the simulator's, cut to its top K.
		got := firstOrder(daemon.Events)
		if got == nil {
			t.Fatalf("seed %d: GET /schedule recorded no ActOrder event", seed)
		}
		want := *simEv
		want.Seq, want.Tick = got.Seq, got.Tick
		want.Alternatives = want.Alternatives[:s.rec.TopK()]
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("seed %d: the daemon recorded\n %+v\nthe simulator\n %+v", seed, *got, want)
		}

		ties, crossShard := 0, 0
		for i := 1; i < n; i++ {
			if a, b := sched[i-1], sched[i]; score[a.ID] == score[b.ID] {
				ties++
				if s.shardFor(a.VC) != s.shardFor(b.VC) {
					crossShard++
				}
			}
		}
		t.Logf("seed %d: %d exact key ties (%d across shards), %d jobs re-estimated by their profile",
			seed, ties, crossShard, reestimated)
		if ties < 20 || crossShard == 0 || ties == crossShard || reestimated == 0 {
			t.Fatalf("seed %d: the stream no longer covers equal keys on one shard and across shards, and re-estimates", seed)
		}
	}
}

// firstOrder returns the first ActOrder event of evs, or nil.
func firstOrder(evs []dtrace.Event) *dtrace.Event {
	for i := range evs {
		if evs[i].Action == dtrace.ActOrder {
			return &evs[i]
		}
	}
	return nil
}
