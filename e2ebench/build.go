package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
)

// minBuildCycles is the fewest build-then-refresh cycles a build run
// measures, however short -seconds is.
const minBuildCycles = 3

// runBuild is the build workload over the real CLI: repeated cycles of
// a full sharded build and a refresh onto the day-1 graph.
func runBuild(ctx context.Context, cfg *config, in *inputs, rep *report) error {
	checkPaperTables(rep)

	var builds, refreshes []float64
	var lastDir, snap, next string
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < minBuildCycles || time.Now().Before(deadline); i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("build-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		snap = filepath.Join(dir, "base.snap")
		buildArgs := []string{"-graph", in.basePath, "-method", "weighted", "-sharded", "-shard-max-nodes", strconv.Itoa(shardMaxNodes), "-bids", in.bidsPath, "-save", snap}
		b, err := runTool(cfg.program("simrank"), fmt.Sprintf("simrank-build-%d", i), cfg.work, cfg.procs, buildArgs...)
		if err != nil {
			return err
		}
		builds = append(builds, b.Seconds())
		// A refresh is short beside a build: two per cycle, each from the
		// built snapshot into its own next generation.
		var refreshArgs []string
		for j := 0; j < 2; j++ {
			next = filepath.Join(dir, fmt.Sprintf("next-%d.snap", j))
			refreshArgs = []string{"-graph", in.day1Path, "-refresh", snap, "-bids", in.bidsPath, "-save", next}
			r, err := runTool(cfg.program("simrank"), fmt.Sprintf("simrank-refresh-%d-%d", i, j), cfg.work, cfg.procs, refreshArgs...)
			if err != nil {
				return err
			}
			refreshes = append(refreshes, r.Seconds())
		}
		if lastDir != "" {
			os.RemoveAll(lastDir) // keep only the newest cycle's files
		} else {
			rep.recordProcess(&daemon{name: "simrank (build)", args: buildArgs}, cfg.procs)
			rep.recordProcess(&daemon{name: "simrank (refresh)", args: refreshArgs}, cfg.procs)
		}
		lastDir = dir
	}
	cycles := len(builds)
	rep.addPhase(phase{Name: "build.builds", Attempted: cycles, Succeeded: cycles})
	rep.addPhase(phase{Name: "build.refreshes", Attempted: len(refreshes), Succeeded: len(refreshes)})
	rep.set("build_s", median(builds), "s")
	rep.set("refresh_s", median(refreshes), "s")
	rep.Notes = append(rep.Notes, fmt.Sprintf("build_s, refresh_s: medians of %d builds and %d refreshes", len(builds), len(refreshes)))
	rep.Gate["latency_p50_ms"] = metric{median(builds) * 1000, "ms"}
	rep.Gate["aux_latency_p50_ms"] = metric{median(refreshes) * 1000, "ms"}
	rep.input("snapshot_bytes", fileSize(snap))
	shards, err := snapshotShards(snap)
	if err != nil {
		return err
	}
	rep.input("shards", shards)

	// The build's output goes into service: a replica over the refreshed
	// snapshot, set up setupReps times.
	setupCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	st, err := setupMedian(rep, func(tag int) (stack, time.Duration, error) {
		return startReplica(setupCtx, cfg, in, next, tag)
	})
	if err != nil {
		return err
	}
	rep.recordProcess(st[0], cfg.procs)
	st.stop()

	return checkBuiltSnapshot(rep, in, snap)
}

// startReplica spawns one simrankd over snap and waits until it is ready.
func startReplica(ctx context.Context, cfg *config, in *inputs, snap string, tag int) (stack, time.Duration, error) {
	t0 := time.Now()
	d, err := startReady(ctx, cfg, "simrankd", fmt.Sprintf("simrankd-built-%d", tag), "-snapshot", snap, "-bids", in.bidsPath)
	if d == nil {
		return nil, 0, err
	}
	return stack{d}, time.Since(t0), err
}

// cliConfig is the engine configuration simrank's defaults produce for
// -method weighted.
func cliConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.C1, cfg.C2 = 0.8, 0.8
	cfg.Iterations = 7
	cfg.PruneEpsilon = 1e-5
	cfg.Variant = core.Weighted
	return cfg
}

// shardMaxNodes is the -shard-max-nodes every build passes: room for one
// cluster (genClusterQueries+genClusterAds nodes) but not two. Under the
// CLI's 4096 default the plan would leave a 4096-node remainder shard
// that most click batches dirty; under this budget it carves the head
// component into one shard per cluster, so a batch or a churned cluster
// costs one shard's refresh whatever the seed.
const shardMaxNodes = 640

// cliPlanConfig is the partition configuration simrank -sharded
// -shard-max-nodes shardMaxNodes uses.
func cliPlanConfig() partition.PlanConfig {
	pc := partition.DefaultPlanConfig()
	pc.MaxShardNodes = shardMaxNodes
	return pc
}

// checkPaperTables checks that the engine reproduces Tables 3 and 4 of
// the paper on the Figure 4 graphs they are computed on.
func checkPaperTables(rep *report) {
	table3 := []float64{0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744}
	table4 := []float64{0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808}
	detail := ""
	sim := func(g *clickgraph.Graph, v core.Variant, k int, a, b string) float64 {
		cfg := core.DefaultConfig().WithVariant(v)
		cfg.Iterations = k
		res, err := core.Run(g, cfg)
		if err != nil {
			detail = err.Error()
			return math.NaN()
		}
		q1, _ := g.QueryID(a)
		q2, _ := g.QueryID(b)
		return res.QuerySim(q1, q2)
	}
	for k := 1; k <= len(table3); k++ {
		for _, c := range []struct {
			table, graph string
			g            *clickgraph.Graph
			variant      core.Variant
			a, b         string
			want         float64
		}{
			{"3", "K2,2", clickgraph.Fig4K22(), core.Simple, "camera", "digital camera", table3[k-1]},
			{"3", "K1,2", clickgraph.Fig4K12(), core.Simple, "pc", "camera", 0.8},
			{"4", "K2,2", clickgraph.Fig4K22(), core.Evidence, "camera", "digital camera", table4[k-1]},
			{"4", "K1,2", clickgraph.Fig4K12(), core.Evidence, "pc", "camera", 0.4},
		} {
			if got := sim(c.g, c.variant, k, c.a, c.b); !(math.Abs(got-c.want) <= 5e-8) && detail == "" {
				detail = fmt.Sprintf("table %s, %s, iteration %d: sim(%s, %s) = %.7f, want %.7f", c.table, c.graph, k, c.a, c.b, got, c.want)
			}
		}
	}
	rep.check("build: core.Run reproduces the paper's Tables 3 and 4 (0.4000000, 0.5600000, ...; 0.3000000, 0.4200000, ...)", detail == "", detail)
}

// checkBuiltSnapshot compares a sample of the CLI-built snapshot's ranked
// lookups with an in-process core.RunSharded under the same settings.
func checkBuiltSnapshot(rep *report, in *inputs, snapPath string) error {
	plan, err := partition.BuildPlan(in.base, cliPlanConfig())
	if err != nil {
		return err
	}
	res, err := core.RunSharded(in.base, cliConfig(), plan, core.ShardOptions{})
	if err != nil {
		return err
	}
	snap, err := serve.OpenSnapshot(snapPath)
	if err != nil {
		return err
	}
	defer snap.Close()
	ph := phase{Name: "check.built_snapshot"}
	detail := ""
	compare := func(kind string, id int, got, want []sparse.Scored) {
		ph.Attempted++
		if !slices.Equal(got, want) {
			ph.Failed++
			if detail == "" {
				detail = fmt.Sprintf("%s %d: snapshot %v, in-process %v", kind, id, got, want)
			}
			return
		}
		ph.Succeeded++
	}
	for q := 0; q < in.base.NumQueries(); q += 37 {
		compare("TopRewrites query", q, snap.TopRewrites(q, 10), res.TopRewrites(q, 10))
	}
	for a := 0; a < in.base.NumAds(); a += 53 {
		compare("TopSimilarAds ad", a, snap.TopSimilarAds(a, 10), res.TopSimilarAds(a, 10))
	}
	rep.addPhase(ph)
	rep.check("build: snapshot TopRewrites/TopSimilarAds equal in-process core.RunSharded", ph.Failed == 0, detail)
	return nil
}
