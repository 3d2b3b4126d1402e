package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/ingest"
	"simrankpp/internal/partition"
	"simrankpp/internal/route"
	"simrankpp/internal/serve"
)

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A layer the workload does not call reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"partition.plan_ms", "ms"},
	{"partition.diff_ms", "ms"},
	{"partition.dirty_shards", "count"},
	{"partition.clean_shards", "count"},
	{"core.shard_run_ms", "ms"},
	{"core.refresh_run_ms", "ms"},
	{"core.iterations", "count"},
	{"core.pass_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.topk_ms", "ms"},
	{"serve.snapshot_bytes", "bytes"},
	{"serve.commit_ms", "ms"},
	{"serve.publish_ms", "ms"},
	{"serve.bytes_reencoded", "bytes"},
	{"serve.bytes_copied", "bytes"},
	{"serve.open_ms", "ms"},
	{"serve.first_touch_us", "us"},
	{"serve.lookup_rewrite_p50_ns", "ns"},
	{"serve.lookup_rewrite_p99_ns", "ns"},
	{"serve.lookup_similar_p50_ns", "ns"},
	{"serve.lookup_similar_p99_ns", "ns"},
	{"serve.handler_rewrite_us", "us"},
	{"serve.handler_similar_us", "us"},
	{"serve.handler_batch_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.swap_ms", "ms"},
	{"route.hop_us", "us"},
	{"route.net_us", "us"},
	{"route.retries", "1/req"},
	{"route.hedges", "1/req"},
	{"route.failovers", "1/req"},
	{"ingest.append_ms", "ms"},
	{"ingest.fold_ms", "ms"},
	{"ingest.replay_build_ms", "ms"},
	{"ingest.refresh_ms", "ms"},
	{"ingest.commit_ms", "ms"},
	{"ingest.publish_ms", "ms"},
	{"ingest.state_ms", "ms"},
	{"ingest.records_per_fold", "count"},
	{"ingest.max_lag_records", "count"},
	{"ingest.skipped_fold_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// finishLayers fills every per-layer metric the workload left unset
// with 0, notes which, and writes the spans beside the results.
func finishLayers(cfg *config, rep *report, tr *tracer, set map[string]float64) error {
	tr.mu.Lock()
	set["trace.spans"] = float64(len(tr.spans))
	tr.mu.Unlock()
	var unset []string
	for _, m := range layerMetrics {
		v, ok := set[m.name]
		if !ok {
			unset = append(unset, m.name)
		}
		rep.Layers[m.name] = metric{v, m.unit}
	}
	rep.Notes = append(rep.Notes, "per-layer metrics this workload does not exercise (reported as 0): "+strings.Join(unset, ", "))
	return tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
}

// overhead is the traced run's headline latency over the untraced
// run's, as a percentage. It includes the in-process versus
// separate-process difference as well as the cost of the spans.
func overhead(rep *report, traced float64) float64 {
	untraced := rep.Gate["latency_p50_ms"].Value
	rep.Notes = append(rep.Notes, fmt.Sprintf("tracing overhead: traced headline p50 %.4f ms vs untraced %.4f ms "+
		"(includes the in-process versus separate-process difference)", traced, untraced))
	return (traced - untraced) / untraced * 100
}

// serveHTTP serves h on a loopback listener until the returned stop.
func serveHTTP(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns ErrServerClosed on stop
	}()
	return "http://" + l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a drain past 5s only delays the run's end
		<-done
	}, nil
}

// getJSON calls h in-process and decodes its JSON answer into v.
func getJSON(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// firstTouch times the first lookup of one query per shard on a freshly
// opened snapshot, in µs.
func firstTouch(snap *serve.Snapshot, queries []string) []float64 {
	seen := make(map[int]bool)
	var out []float64
	for _, q := range queries {
		id, shard, ok := snap.PrevQuery(q)
		if !ok || seen[shard] {
			continue
		}
		seen[shard] = true
		t0 := time.Now()
		snap.PrecomputedRewrites(id, readTop)
		out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return out
}

// replicaStats is the part of a replica's /stats the layers need.
type replicaStats struct {
	CacheHits int64 `json:"cache_hits"`
	Endpoints map[string]struct {
		Requests int64 `json:"requests"`
	} `json:"endpoints"`
}

// traceServe runs the serve workload in-process: two servers over their
// own mmap'd snapshots behind route.New, spans around every handler and
// backend round trip, then direct lookups on the snapshot.
func traceServe(ctx context.Context, cfg *config, in *inputs, rep *report) error {
	tr := newTracer()
	set := map[string]float64{}
	snapPath := filepath.Join(cfg.work, "base.snap")
	sc := serve.DefaultServerConfig()
	sc.BidTerms = in.bids

	var snaps []*serve.Snapshot
	defer func() {
		for _, s := range snaps {
			s.Close()
		}
	}()
	var opens []float64
	open := func() (*serve.Snapshot, error) {
		var s *serve.Snapshot
		d, err := tr.call("serve.OpenSnapshot", func() (err error) { s, err = serve.OpenSnapshot(snapPath); return err })
		if err != nil {
			return nil, err
		}
		opens = append(opens, float64(d)/float64(time.Millisecond))
		snaps = append(snaps, s)
		return s, nil
	}
	router, err := open()
	if err != nil {
		return err
	}
	set["serve.first_touch_us"] = median(firstTouch(router, in.base.Queries()))

	var backends []string
	var servers []*serve.Server
	for i := 0; i < 2; i++ {
		s, err := open()
		if err != nil {
			return err
		}
		srv := serve.NewServer(s, sc)
		servers = append(servers, srv)
		url, stop, err := serveHTTP(tr.traceHandler("serve.handler.", srv.Handler()))
		if err != nil {
			return err
		}
		defer stop()
		backends = append(backends, url)
	}
	set["serve.open_ms"] = median(opens)
	specs, err := route.ParseBackendList(strings.Join(backends, ","))
	if err != nil {
		return err
	}
	gw, err := route.New(route.Options{Backends: specs, Router: router,
		Transport: &traceTransport{t: tr, name: "route.backend", base: http.DefaultTransport.(*http.Transport).Clone()}})
	if err != nil {
		return err
	}
	gctx, stopGW := context.WithCancel(ctx)
	var gwDone sync.WaitGroup
	defer func() { stopGW(); gwDone.Wait() }()
	gw.ProbeAll(gctx)
	gwDone.Add(1)
	go func() { defer gwDone.Done(); gw.Run(gctx) }()
	gwURL, stop, err := serveHTTP(tr.traceHandler("route.handler.", gw.Handler()))
	if err != nil {
		return err
	}
	defer stop()

	closedLoop(gwURL, in.reads, readConns(cfg), time.Second, nil, nil) // warm-up, untraced
	rs := closedLoop(gwURL, in.reads, readConns(cfg), time.Duration(cfg.seconds)*time.Second, nil, tr)
	rs.record(rep, "traced.read.")
	set["trace.overhead_pct"] = overhead(rep, summarize(rs.lat[opRewrite], 99).P50/1000)

	for _, ep := range []string{"rewrite", "similar", "batch"} {
		set["serve.handler_"+ep+"_us"] = median(tr.selfTimes("serve.handler."+ep, time.Microsecond))
	}
	set["route.hop_us"] = median(tr.selfTimes("route.handler.", time.Microsecond))
	set["route.net_us"] = median(tr.selfTimes("route.backend", time.Microsecond))
	// Every /rewrite and every /batch item is one cache lookup. The
	// gateway splits a batch by shard, so items are counted at the client.
	hits, lookups := int64(0), int64(genBatchQueries*rs.attempted[opBatch])
	for _, srv := range servers {
		var st replicaStats
		if err := getJSON(srv.Handler(), "/stats", &st); err != nil {
			return err
		}
		hits += st.CacheHits
		lookups += st.Endpoints["rewrite"].Requests
	}
	set["serve.cache_hit_ratio"] = float64(hits) / float64(max(1, lookups))
	var gst route.StatsResponse
	if err := getJSON(gw.Handler(), "/stats", &gst); err != nil {
		return err
	}
	proxied := float64(max(1, gst.Proxied))
	set["route.retries"] = float64(gst.Retries) / proxied
	set["route.hedges"] = float64(gst.Hedges) / proxied
	set["route.failovers"] = float64(gst.Failovers) / proxied

	rw, sim := lookupTimes(snaps[1], in)
	rwd, simd := summarize(rw, 99), summarize(sim, 99)
	set["serve.lookup_rewrite_p50_ns"], set["serve.lookup_rewrite_p99_ns"] = rwd.P50, quantile(rw, 99)
	set["serve.lookup_similar_p50_ns"], set["serve.lookup_similar_p99_ns"] = simd.P50, quantile(sim, 99)
	return finishLayers(cfg, rep, tr, set)
}

// lookupTimes calls the snapshot's ranked lookups directly for the read
// schedule's subjects: PrecomputedRewrites for /rewrite queries,
// TopRewrites and TopSimilarAds for /similar. It returns ns per call.
func lookupTimes(snap *serve.Snapshot, in *inputs) (rewrite, similar []float64) {
	deadline := time.Now().Add(2 * time.Second)
	for i := range in.reads {
		if time.Now().After(deadline) {
			break
		}
		op := &in.reads[i]
		switch op.kind {
		case opRewrite, opSimilarQ:
			q, ok := snap.QueryID(op.subject)
			if !ok {
				continue
			}
			t0 := time.Now()
			if op.kind == opRewrite {
				snap.PrecomputedRewrites(q, readTop)
				rewrite = append(rewrite, float64(time.Since(t0)))
			} else {
				snap.TopRewrites(q, readTop)
				similar = append(similar, float64(time.Since(t0)))
			}
		case opSimilarAd:
			a, ok := snap.AdID(op.subject)
			if !ok {
				continue
			}
			t0 := time.Now()
			snap.TopSimilarAds(a, readTop)
			similar = append(similar, float64(time.Since(t0)))
		}
	}
	return rewrite, similar
}

// foldStages turns the controller's Checkpoint calls into one span per
// fold stage.
type foldStages struct {
	tr   *tracer
	mu   sync.Mutex
	last time.Time
}

// stageSpans names the span that ends at each checkpoint.
var stageSpans = map[string]string{
	"fold:built":        "ingest.stage.replay_build",
	"fold:pre-commit":   "ingest.stage.refresh",
	"fold:pre-publish":  "ingest.stage.commit",
	"fold:post-publish": "ingest.stage.publish",
	"fold:post-cursor":  "ingest.stage.state",
}

func (f *foldStages) checkpoint(stage string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	name, ok := stageSpans[stage]
	switch {
	case stage == "fold:start":
		f.last = now
	case !ok || f.last.IsZero():
		// A checkpoint inside a stage (the commit's mid-write), or a
		// stage of a fold whose start was not seen.
	default:
		f.tr.add(f.tr.id(), 0, 0, name, f.last)
		f.last = now
	}
	return nil
}

// traceFresh runs the fresh workload in-process: a serve.Server and an
// ingest.Controller composed as simrank-ingestd composes them (-churn 1,
// a cadence longer than the run), with FoldOnce driven on each kick.
func traceFresh(ctx context.Context, cfg *config, in *inputs, rep *report) error {
	tr := newTracer()
	set := map[string]float64{}
	dir := filepath.Join(cfg.work, "trace-fresh")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snapPath := filepath.Join(dir, "serving.snap")
	if err := copyFile(filepath.Join(cfg.work, "base.snap"), snapPath); err != nil {
		return err
	}
	var snap *serve.Snapshot
	d, err := tr.call("serve.OpenSnapshot", func() (err error) { snap, err = serve.OpenSnapshot(snapPath); return err })
	if err != nil {
		return err
	}
	set["serve.open_ms"] = float64(d) / float64(time.Millisecond)
	set["serve.first_touch_us"] = median(firstTouch(snap, in.base.Queries()))
	sc := serve.DefaultServerConfig()
	sc.BidTerms = in.bids
	srv := serve.NewServer(snap, sc)

	stages := &foldStages{tr: tr}
	var swaps []float64
	ctl, err := ingest.NewController(ingest.Config{
		WALDir: snapPath + ".wal", SnapshotPath: snapPath, GraphPath: in.basePath,
		Cadence: time.Hour, ChurnRecords: 1, KeepGenerations: 4, Bids: in.bids,
		Checkpoint: stages.checkpoint,
		OnPublish: func(gen *serve.Generation) {
			t0 := time.Now()
			err := srv.Reload(func() (serve.ScoreIndex, error) {
				idx, err := serve.OpenSnapshot(gen.SnapPath)
				if err == nil {
					srv.SetGenerationID(gen.ID)
				}
				return idx, err
			}, nil, func(old serve.ScoreIndex) {
				if c, ok := old.(*serve.Snapshot); ok {
					c.Close()
				}
			}, func(string, ...any) {})
			if err == nil {
				swaps = append(swaps, float64(time.Since(t0))/float64(time.Millisecond))
			}
		},
	})
	if err != nil {
		return err
	}
	defer ctl.Close()
	defer func() { srv.Index().(*serve.Snapshot).Close() }()
	srv.SetIngestStatus(ctl.Status)

	kick := make(chan struct{}, 1)
	var lagMu sync.Mutex
	var maxLag uint64
	mux := http.NewServeMux()
	mux.Handle("/", tr.traceHandler("serve.handler.", srv.Handler()))
	mux.Handle("/ingest", tr.traceHandler("ingest.handler.", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs, err := ingest.ReadRecords(http.MaxBytesReader(w, r.Body, 32<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ref, _ := r.Context().Value(spanCtxKey{}).(spanRef)
		id, t0 := tr.id(), time.Now()
		n, err := ctl.Ingest(recs)
		tr.add(id, ref.parent, ref.req, "ingest.Controller.Ingest", t0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		lagMu.Lock()
		maxLag = max(maxLag, ctl.Stats().WALLagRecords)
		lagMu.Unlock()
		select {
		case kick <- struct{}{}:
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\":%d}\n", n)
	})))
	url, stop, err := serveHTTP(mux)
	if err != nil {
		return err
	}
	defer stop()

	// The fold loop: what Controller.Run does on a kick, with FoldOnce
	// timed from here.
	var folds []*ingest.FoldResult
	foldCtx, stopFolds := context.WithCancel(ctx)
	foldsDone := make(chan struct{})
	go func() {
		defer close(foldsDone)
		for {
			select {
			case <-foldCtx.Done():
				return
			case <-kick:
			}
			var res *ingest.FoldResult
			_, err := tr.call("ingest.Controller.FoldOnce", func() (err error) { res, err = ctl.FoldOnce(foldCtx); return err })
			if err == nil {
				folds = append(folds, res)
			}
		}
	}()

	done := make(chan *readStats, 1)
	go func() {
		done <- closedLoop(url, in.reads, 1, time.Duration(cfg.seconds)*time.Second,
			func(k opKind) bool { return k == opRewrite }, tr)
	}()
	is := ingestLoop(url, in.batches, tr)
	rs := <-done
	deadline := time.Now().Add(30 * time.Second)
	for ctl.Stats().FoldCursor < is.ackedRecords && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	stopFolds()
	<-foldsDone
	rs.record(rep, "traced.read.")
	rep.addPhase(phase{Name: "traced.fresh.probes_visible", Attempted: is.acked, Succeeded: is.acked - is.invisible, Failed: is.invisible})
	rep.check("fresh (traced): every batch acked, every acked probe visible and fold cursor equals records acked",
		is.failed == 0 && is.acked == len(in.batches) && is.invisible == 0 && ctl.Stats().FoldCursor == is.ackedRecords,
		fmt.Sprintf("%d of %d batches acked; %d probes not visible; cursor %d, acked %d",
			is.acked, len(in.batches), is.invisible, ctl.Stats().FoldCursor, is.ackedRecords))
	if is.failed == 0 {
		if err := replayFolds(tr, rep, dir, in, filepath.Join(cfg.work, "base.snap"), folds, set); err != nil {
			return err
		}
	}
	set["trace.overhead_pct"] = overhead(rep, summarize(is.visibleMs, 99).P50)

	set["serve.handler_rewrite_us"] = median(tr.selfTimes("serve.handler.rewrite", time.Microsecond))
	set["ingest.append_ms"] = median(tr.durations("ingest.Controller.Ingest", time.Millisecond))
	set["ingest.fold_ms"] = median(tr.durations("ingest.Controller.FoldOnce", time.Millisecond))
	for _, s := range []string{"replay_build", "refresh", "commit", "publish", "state"} {
		set["ingest."+s+"_ms"] = median(tr.durations("ingest.stage."+s, time.Millisecond))
	}
	set["serve.commit_ms"], set["serve.publish_ms"] = set["ingest.commit_ms"], set["ingest.publish_ms"]
	set["serve.swap_ms"] = median(swaps)
	var records, dirty, clean, reenc, copied []float64
	skipped := 0
	for _, f := range folds {
		if f.Skipped {
			skipped++
			continue
		}
		records = append(records, float64(f.Pending))
		dirty = append(dirty, float64(f.Stats.DirtyShards))
		clean = append(clean, float64(f.Stats.CleanShards))
		reenc = append(reenc, float64(f.Stats.BytesReencoded))
		copied = append(copied, float64(f.Stats.BytesCopied))
	}
	set["ingest.records_per_fold"] = median(records)
	set["ingest.max_lag_records"] = float64(maxLag)
	set["ingest.skipped_fold_ratio"] = float64(skipped) / float64(max(1, len(folds)))
	set["partition.dirty_shards"], set["partition.clean_shards"] = median(dirty), median(clean)
	set["serve.bytes_reencoded"], set["serve.bytes_copied"] = median(reenc), median(copied)
	var st replicaStats
	if err := getJSON(srv.Handler(), "/stats", &st); err != nil {
		return err
	}
	set["serve.cache_hit_ratio"] = float64(st.CacheHits) / float64(max(1, st.Endpoints["rewrite"].Requests))
	rep.Notes = append(rep.Notes, fmt.Sprintf("traced fresh: %d folds (%d skipped)", len(folds), skipped))
	return finishLayers(cfg, rep, tr, set)
}

// replayFolds times the diff and the dirty-shard run of every published
// fold. FoldOnce makes both calls inside itself, out of the tracer's
// reach, so they are repeated here after the run, off the clock. Each
// fold's graph is rebuilt as the controller builds it: the base graph
// re-interned in id order, then the acked records in WAL order, as many
// as the fold replayed. Each refresh runs against the snapshot the fold
// started from, rewritten here as the fold wrote it. A replay whose
// dirty-shard count or final graph differs from the controller's fails
// the run.
func replayFolds(tr *tracer, rep *report, dir string, in *inputs, baseSnap string, folds []*ingest.FoldResult, set map[string]float64) error {
	var recs []ingest.Record
	for _, b := range in.batches {
		rs, err := ingest.ReadRecords(bytes.NewReader(b.body))
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	b, err := builderFromGraph(in.base)
	if err != nil {
		return err
	}
	prev, err := serve.OpenSnapshot(baseSnap)
	if err != nil {
		return err
	}
	defer func() { prev.Close() }()
	var iters, passes []float64
	next, published, mismatch := 0, 0, ""
	for i, f := range folds {
		end := next + int(f.Replayed)
		if end > len(recs) {
			return fmt.Errorf("fold replay: fold %d replayed past the %d acked records", i, len(recs))
		}
		for _, r := range recs[next:end] {
			if err := b.AddEdge(r.Query, r.Ad, r.Weights()); err != nil {
				return err
			}
		}
		next = end
		if f.Skipped {
			continue
		}
		g := b.Build()
		if _, err := tr.call("replay.partition.DiffPlans", func() error { _, err := partition.DiffPlans(prev, g); return err }); err != nil {
			return err
		}
		var res *core.Result
		var diff *partition.Diff
		if _, err := tr.call("replay.serve.RunRefresh", func() (err error) { res, diff, err = serve.RunRefresh(g, prev, 0); return err }); err != nil {
			return err
		}
		if diff.DirtyShards != f.Stats.DirtyShards && mismatch == "" {
			mismatch = fmt.Sprintf("fold %d: replay dirties %d shards, the controller %d", i, diff.DirtyShards, f.Stats.DirtyShards)
		}
		iters = append(iters, float64(res.Iterations))
		for _, it := range res.IterStats {
			passes = append(passes, float64(it.Duration)/float64(time.Millisecond))
		}
		// Two files in turn: the one prev maps is never rewritten.
		path := filepath.Join(dir, fmt.Sprintf("replay-%d.snap", published%2))
		published++
		if err := writeRefreshed(path, prev, res, diff.Dirty, in.bids); err != nil {
			return err
		}
		prev.Close()
		if prev, err = serve.OpenSnapshot(path); err != nil {
			return err
		}
	}
	if mismatch == "" {
		st, err := ingest.LoadFoldState(filepath.Join(dir, "serving.snap.wal"))
		switch {
		case err != nil:
			return err
		case st == nil:
			mismatch = "no fold state saved"
		case st.Fingerprint != partition.GraphFingerprint(b.Build()):
			mismatch = "the replayed graph's fingerprint differs from the controller's fold state"
		}
	}
	rep.check("fresh (traced): the fold replay rebuilds the controller's graphs and dirty shards", mismatch == "", mismatch)
	ms := func(name string) float64 { return median(tr.durations(name, time.Millisecond)) }
	set["partition.diff_ms"] = ms("replay.partition.DiffPlans")
	set["core.refresh_run_ms"] = ms("replay.serve.RunRefresh")
	set["core.iterations"] = median(iters)
	set["core.pass_ms"] = median(passes)
	rep.Notes = append(rep.Notes, fmt.Sprintf("traced fresh: partition.diff_ms, core.refresh_run_ms, core.iterations and core.pass_ms "+
		"come from replaying the %d published folds off the clock", published))
	return nil
}

// builderFromGraph re-interns g into a new builder in g's id order,
// queries then ads, as the ingest controller does, so the graphs it
// builds keep every existing node's id.
func builderFromGraph(g *clickgraph.Graph) (*clickgraph.Builder, error) {
	b := clickgraph.NewBuilder()
	for _, q := range g.Queries() {
		b.AddQuery(q)
	}
	for _, a := range g.Ads() {
		b.AddAd(a)
	}
	var err error
	g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		err = b.AddEdge(g.Query(q), g.Ad(a), w)
		return err == nil
	})
	return b, err
}

// writeRefreshed writes the refresh of prev by res to path.
func writeRefreshed(path string, prev *serve.Snapshot, res *core.Result, dirty []bool, bids map[string]bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := serve.RefreshSnapshot(f, prev, res, dirty, bids); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceBuild runs the build workload in-process, composed as simrank
// composes it: BuildPlan, RunSharded, the snapshot write, then the
// journaled refresh onto the day-1 graph.
func traceBuild(ctx context.Context, cfg *config, in *inputs, rep *report) error {
	tr := newTracer()
	set := map[string]float64{}
	var last struct {
		res   *core.Result
		diff  *partition.Diff
		stats serve.RefreshStats
		snap  string
	}
	var cycleMs []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("trace-build-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		snapPath, next := filepath.Join(dir, "base.snap"), filepath.Join(dir, "next.snap")
		t0 := time.Now()
		var plan *partition.Plan
		if _, err := tr.call("partition.BuildPlan", func() (err error) { plan, err = partition.BuildPlan(in.base, cliPlanConfig()); return err }); err != nil {
			return err
		}
		var res *core.Result
		if _, err := tr.call("core.RunSharded", func() (err error) {
			res, err = core.RunSharded(in.base, cliConfig(), plan, core.ShardOptions{RetainShardScores: true})
			return err
		}); err != nil {
			return err
		}
		topk := serve.TopKOptions{K: serve.DefaultRewriteTopK, BidTerms: in.bids}
		if _, err := tr.call("serve.WriteSnapshotFileTopK", func() error { return serve.WriteSnapshotFileTopK(snapPath, res, topk) }); err != nil {
			return err
		}
		cycleMs = append(cycleMs, float64(time.Since(t0))/float64(time.Millisecond))
		// The same result without the rewrite section: the difference is
		// the write-time top-k build.
		if _, err := tr.call("serve.WriteSnapshotFile", func() error { return serve.WriteSnapshotFile(filepath.Join(dir, "plain.snap"), res) }); err != nil {
			return err
		}
		stats, diff, err := traceRefresh(tr, in, snapPath, next)
		if err != nil {
			return err
		}
		last.res, last.diff, last.stats, last.snap = res, diff, stats, snapPath
		if i > 0 {
			os.RemoveAll(filepath.Join(cfg.work, fmt.Sprintf("trace-build-%d", i-1)))
		}
	}
	set["trace.overhead_pct"] = overhead(rep, median(cycleMs))
	ms := func(name string) float64 { return median(tr.durations(name, time.Millisecond)) }
	set["partition.plan_ms"] = ms("partition.BuildPlan")
	set["partition.diff_ms"] = ms("partition.DiffPlans")
	set["partition.dirty_shards"], set["partition.clean_shards"] = float64(last.diff.DirtyShards), float64(last.diff.CleanShards)
	set["core.shard_run_ms"] = ms("core.RunSharded")
	set["core.refresh_run_ms"] = ms("serve.RunRefresh")
	set["core.iterations"] = float64(last.res.Iterations)
	var passes []float64
	for _, it := range last.res.IterStats {
		passes = append(passes, float64(it.Duration)/float64(time.Millisecond))
	}
	set["core.pass_ms"] = median(passes)
	set["serve.encode_ms"] = ms("serve.WriteSnapshotFile")
	set["serve.topk_ms"] = ms("serve.WriteSnapshotFileTopK") - set["serve.encode_ms"]
	set["serve.snapshot_bytes"] = float64(fileSize(last.snap))
	set["serve.commit_ms"] = ms("serve.GenerationStore.Commit")
	set["serve.publish_ms"] = ms("serve.GenerationStore.Publish")
	set["serve.bytes_reencoded"], set["serve.bytes_copied"] = float64(last.stats.BytesReencoded), float64(last.stats.BytesCopied)
	set["serve.open_ms"] = ms("serve.OpenSnapshot")
	rep.Notes = append(rep.Notes, fmt.Sprintf("traced build: %d cycles; overhead compares plan+run+write with simrank's wall time", len(cycleMs)))
	return finishLayers(cfg, rep, tr, set)
}

// traceRefresh is simrank -refresh's local path: lock, adopt, diff, run
// the dirty shards, commit and publish the next generation.
func traceRefresh(tr *tracer, in *inputs, prevPath, next string) (serve.RefreshStats, *partition.Diff, error) {
	var st serve.RefreshStats
	gs := serve.NewGenerationStore(next, serve.DefaultKeepGenerations)
	release, err := gs.Lock()
	if err != nil {
		return st, nil, err
	}
	defer release()
	if _, err := gs.SweepTemp(); err != nil {
		return st, nil, err
	}
	var prev *serve.Snapshot
	if _, err := tr.call("serve.OpenSnapshot", func() (err error) { prev, err = serve.OpenSnapshot(prevPath); return err }); err != nil {
		return st, nil, err
	}
	defer prev.Close()
	if _, err := gs.Adopt(); err != nil {
		return st, nil, err
	}
	// DiffPlans alone, for its own time; RunRefresh repeats it inside.
	if _, err := tr.call("partition.DiffPlans", func() error { _, err := partition.DiffPlans(prev, in.day1); return err }); err != nil {
		return st, nil, err
	}
	var res *core.Result
	var diff *partition.Diff
	if _, err := tr.call("serve.RunRefresh", func() (err error) { res, diff, err = serve.RunRefresh(in.day1, prev, 0); return err }); err != nil {
		return st, nil, err
	}
	var fp uint64
	for i := range res.ShardStats {
		fp ^= res.ShardStats[i].Fingerprint
	}
	var gen *serve.Generation
	if _, err := tr.call("serve.GenerationStore.Commit", func() (err error) {
		gen, err = gs.Commit(diff.DirtyShards, fp, func(w io.Writer) error {
			var werr error
			st, werr = serve.RefreshSnapshot(w, prev, res, diff.Dirty, in.bids)
			return werr
		})
		return err
	}); err != nil {
		return st, nil, err
	}
	if _, err := tr.call("serve.GenerationStore.Publish", func() error { return gs.Publish(gen) }); err != nil {
		return st, nil, err
	}
	return st, diff, nil
}
