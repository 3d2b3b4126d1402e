package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"simrankpp/internal/serve"
)

// readConns is how many connections a closed loop holds: one per core.
func readConns(cfg *config) int { return max(1, cfg.procs) }

// buildBase runs the CLI build every serving workload starts from and
// returns the snapshot path and the build's wall time.
func buildBase(cfg *config, in *inputs, name string) (string, time.Duration, error) {
	snap := filepath.Join(cfg.work, name+".snap")
	d, err := runTool(cfg.program("simrank"), "simrank-"+name, cfg.work, cfg.procs,
		"-graph", in.basePath, "-method", "weighted", "-sharded", "-shard-max-nodes", strconv.Itoa(shardMaxNodes), "-bids", in.bidsPath, "-save", snap)
	return snap, d, err
}

// stack is the daemons a workload runs, started in order.
type stack []*daemon

// stop stops the daemons in reverse start order.
func (s stack) stop() {
	for i := len(s) - 1; i >= 0; i-- {
		s[i].stop()
	}
}

func readyStatus(want string) func([]byte) bool {
	return func(b []byte) bool {
		var r struct {
			Status  string `json:"status"`
			Rollout struct {
				Pinned string `json:"pinned"`
			} `json:"rollout"`
		}
		if json.Unmarshal(b, &r) != nil || r.Status != want {
			return false
		}
		return !strings.Contains(string(b), `"rollout"`) || r.Rollout.Pinned != ""
	}
}

// startServe spawns the replicas, waits until both are ready, then the
// gateway (last in the stack), and waits until it has pinned their
// generation. It returns the time from the first spawn until then.
func startServe(ctx context.Context, cfg *config, in *inputs, snap string, tag int) (stack, time.Duration, error) {
	var st stack
	t0 := time.Now()
	var backends []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(cfg, "simrankd", fmt.Sprintf("simrankd-%d-%d", tag, i), "-snapshot", snap, "-bids", in.bidsPath)
		if err != nil {
			return st, 0, err
		}
		st = append(st, d)
		backends = append(backends, "http://"+d.addr)
	}
	for _, d := range st {
		if err := waitReady(ctx, d, "http://"+d.addr+"/readyz", readyStatus("ok")); err != nil {
			return st, 0, err
		}
	}
	gw, err := startReady(ctx, cfg, "simrank-gateway", fmt.Sprintf("simrank-gateway-%d", tag),
		"-backends", strings.Join(backends, ","), "-snapshot", snap)
	if gw != nil {
		st = append(st, gw)
	}
	return st, time.Since(t0), err
}

// startReady spawns program on a free loopback port and waits until its
// /readyz answers ok. On a failed wait it still returns the daemon, for
// the caller to stop.
func startReady(ctx context.Context, cfg *config, program, name string, args ...string) (*daemon, error) {
	d, err := startDaemon(cfg, program, name, args...)
	if err != nil {
		return nil, err
	}
	return d, waitReady(ctx, d, "http://"+d.addr+"/readyz", readyStatus("ok"))
}

// startDaemon spawns program listening on a free loopback port.
func startDaemon(cfg *config, program, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d, err := spawn(cfg.program(program), name, cfg.work, cfg.procs, append(args, "-addr", addr)...)
	if err != nil {
		return nil, err
	}
	d.addr = addr
	return d, nil
}

// setupMedian sets a workload's daemons up setupReps times, keeps the
// last set running, and reports the median set-up time.
func setupMedian(rep *report, start func(tag int) (stack, time.Duration, error)) (stack, error) {
	var times []float64
	var last stack
	for i := 0; i < setupReps; i++ {
		s, d, err := start(i)
		if err != nil {
			s.stop()
			return nil, err
		}
		times = append(times, d.Seconds())
		if i < setupReps-1 {
			s.stop()
		}
		last = s
	}
	rep.set("setup_s", median(times), "s")
	rep.Gate["setup_s"] = metric{median(times), "s"}
	rep.Notes = append(rep.Notes, fmt.Sprintf("setup_s: median of %d set-ups %v", len(times), times))
	return last, nil
}

// oracleServer is the in-process reference the serve workload's answers
// must equal: a heap-decoded snapshot on the live rewrite pipeline.
func oracleServer(snap string, in *inputs) (http.Handler, func(), error) {
	s, err := serve.OpenSnapshotHeap(snap)
	if err != nil {
		return nil, nil, err
	}
	sc := serve.DefaultServerConfig()
	sc.BidTerms = in.bids
	sc.DisablePrecomputed = true
	return serve.NewServer(s, sc).Handler(), func() { s.Close() }, nil
}

// checkAgainstOracle sends a sample of every read kind through base and
// compares status and body with the oracle's. It returns the phase.
func checkAgainstOracle(base string, oracle http.Handler, ops []readOp, perKind int) (phase, string) {
	ph := phase{Name: "check.oracle"}
	cl := newClient()
	defer cl.CloseIdleConnections()
	var seen [numOpKinds]int
	var mismatch string
	for i := range ops {
		op := &ops[i]
		if seen[op.kind] >= perKind {
			continue
		}
		seen[op.kind]++
		method, path, body := op.request()
		ph.Attempted++
		status, got, err := fetch(cl, method, base+path, body, "")
		rec := httptest.NewRecorder()
		oracle.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if err != nil || status != rec.Code || !op.correct(status, got) || (status == http.StatusOK && !bytes.Equal(got, rec.Body.Bytes())) {
			ph.Failed++
			if mismatch == "" {
				mismatch = fmt.Sprintf("%s %s: got %d %q (err %v), oracle %d %q", method, path, status, clip(got), err, rec.Code, clip(rec.Body.Bytes()))
			}
			continue
		}
		ph.Succeeded++
	}
	return ph, mismatch
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// runServe is the serve workload over the real daemons.
func runServe(ctx context.Context, cfg *config, in *inputs, rep *report) error {
	snap, buildDur, err := buildBase(cfg, in, "base")
	if err != nil {
		return err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("base snapshot built in %.3fs (preparation, outside every metric)", buildDur.Seconds()))
	rep.input("snapshot_bytes", fileSize(snap))
	setupCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	st, err := setupMedian(rep, func(tag int) (stack, time.Duration, error) {
		return startServe(setupCtx, cfg, in, snap, tag)
	})
	if err != nil {
		return err
	}
	defer st.stop()
	for _, d := range st {
		rep.recordProcess(d, cfg.procs)
	}
	shards, err := snapshotShards(snap)
	if err != nil {
		return err
	}
	rep.input("shards", shards)
	gw := "http://" + st[len(st)-1].addr

	// Correctness before timing: gateway answers == the heap oracle.
	oracle, closeOracle, err := oracleServer(snap, in)
	if err != nil {
		return err
	}
	ph, mismatch := checkAgainstOracle(gw, oracle, in.reads, 60)
	closeOracle()
	rep.addPhase(ph)
	rep.check("serve: gateway bodies byte-equal the heap oracle (rewrite, similar q/ad, batch)", ph.Failed == 0, mismatch)

	// Warm-up (untimed), then the measured closed loop.
	closedLoop(gw, in.reads, readConns(cfg), time.Second, nil, nil)
	rs := closedLoop(gw, in.reads, readConns(cfg), time.Duration(cfg.seconds)*time.Second, nil, nil)
	reportServeReads(rep, rs)
	rs.record(rep, "read.")
	return nil
}

// reportServeReads sets the serve workload's read metrics.
func reportServeReads(rep *report, rs *readStats) {
	rps := rs.secondRate()
	rep.set("read_rps", rps, "req/s")
	rw := summarize(rs.lat[opRewrite], 99)
	sim := summarize(append(append([]float64{}, rs.lat[opSimilarQ]...), rs.lat[opSimilarAd]...), 99)
	rep.setDist("rewrite", rw, "us")
	rep.setDist("similar", sim, "us")
	rep.setDist("batch", summarize(rs.lat[opBatch], 99), "us")
	rep.gateMs("latency_p50_ms", rw, 1e-3)
	rep.gateMs("aux_latency_p50_ms", sim, 1e-3)
}

func snapshotShards(path string) (int, error) {
	s, err := serve.OpenSnapshot(path)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return s.NumShards(), nil
}
