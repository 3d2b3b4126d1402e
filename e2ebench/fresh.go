package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

const (
	// pollEvery spaces the visibility polls of one connection.
	pollEvery = 3 * time.Millisecond
	// visibleDeadline bounds how long an acked probe may take to show.
	visibleDeadline = 60 * time.Second
)

// startIngest copies the base snapshot into a fresh directory (not
// timed), then spawns simrank-ingestd and waits until it answers ready.
func startIngest(ctx context.Context, cfg *config, in *inputs, baseSnap string, tag int) (stack, time.Duration, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("fresh-%d", tag))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	snap := filepath.Join(dir, "serving.snap")
	if err := copyFile(baseSnap, snap); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := startReady(ctx, cfg, "simrank-ingestd", fmt.Sprintf("simrank-ingestd-%d", tag),
		"-snapshot", snap, "-graph", in.basePath, "-churn", "1", "-cadence", "1h", "-bids", in.bidsPath)
	if d == nil {
		return nil, 0, err
	}
	return stack{d}, time.Since(t0), err
}

// ingestStats is what the ingest connection measured.
type ingestStats struct {
	due, sent    []time.Duration // per batch, from the schedule start
	ackMs        []float64       // acked batches
	visibleMs    []float64       // per acked probe
	acked        int             // batches
	ackedRecords uint64
	failed       int // batches not acked
	polls        phase
	invisible    int // acked probes still not visible at the deadline
}

// ingestLoop posts the batch schedule open-loop against base and, between
// posts, polls for acked probes. A fold publishes a prefix of the WAL,
// so probes become visible in ack order: only the oldest pending probe
// needs polling, and the ones after it once it shows.
func ingestLoop(base string, batches []ingestBatch, tr *tracer) *ingestStats {
	cl := newClient()
	defer cl.CloseIdleConnections()
	st := &ingestStats{polls: phase{Name: "fresh.visibility_polls"}}
	type pending struct {
		probe string
		ack   time.Time
	}
	var queue []pending
	poll := func() {
		for len(queue) > 0 {
			p := queue[0]
			st.polls.Attempted++
			status, _, err := fetch(cl, http.MethodGet, base+lookupPath("/rewrite", "q", p.probe), nil, "")
			switch {
			case err == nil && status == http.StatusOK:
				st.polls.Succeeded++
				st.visibleMs = append(st.visibleMs, float64(time.Since(p.ack))/float64(time.Millisecond))
				queue = queue[1:]
				continue
			case err == nil && status == http.StatusNotFound:
				st.polls.Succeeded++ // not folded yet: the right answer
			default:
				st.polls.Failed++
			}
			return
		}
	}
	t0 := time.Now()
	for _, b := range batches {
		for time.Since(t0) < b.due {
			poll()
			time.Sleep(pollEvery)
		}
		st.due = append(st.due, b.due)
		st.sent = append(st.sent, time.Since(t0))
		var id uint64
		hdr := ""
		if tr != nil {
			id = tr.id()
			hdr = fmt.Sprintf("%d/%d", id, id)
		}
		ts := time.Now()
		status, _, err := fetch(cl, http.MethodPost, base+"/ingest", b.body, hdr)
		ack := time.Now()
		if tr != nil {
			tr.add(id, 0, id, "client.ingest", ts)
		}
		if err != nil || status != http.StatusOK {
			st.failed++
			continue
		}
		st.acked++
		st.ackedRecords += uint64(b.records)
		st.ackMs = append(st.ackMs, float64(ack.Sub(ts))/float64(time.Millisecond))
		queue = append(queue, pending{b.probe, ack})
	}
	deadline := time.Now().Add(visibleDeadline)
	for len(queue) > 0 && time.Now().Before(deadline) {
		poll()
		time.Sleep(pollEvery)
	}
	st.invisible = len(queue)
	return st
}

// foldCursor waits until the ingest daemon's durable fold cursor reaches
// want, returning the last value seen.
func foldCursor(base string, want uint64, wait time.Duration) (uint64, error) {
	deadline := time.Now().Add(wait)
	var cur uint64
	for {
		var s struct {
			Ingest struct {
				Stats struct {
					FoldCursor uint64 `json:"fold_cursor"`
				} `json:"stats"`
			} `json:"ingest"`
		}
		resp, err := http.Get(base + "/stats")
		if err != nil {
			return cur, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return cur, err
		}
		if err := json.Unmarshal(b, &s); err != nil {
			return cur, fmt.Errorf("/stats: %w", err)
		}
		cur = s.Ingest.Stats.FoldCursor
		if cur >= want || time.Now().After(deadline) {
			return cur, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runFresh is the fresh workload over the real daemon.
func runFresh(ctx context.Context, cfg *config, in *inputs, rep *report) error {
	snap, buildDur, err := buildBase(cfg, in, "base")
	if err != nil {
		return err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("base snapshot built in %.3fs (preparation, outside every metric)", buildDur.Seconds()))
	rep.input("snapshot_bytes", fileSize(snap))
	setupCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	st, err := setupMedian(rep, func(tag int) (stack, time.Duration, error) {
		return startIngest(setupCtx, cfg, in, snap, tag)
	})
	if err != nil {
		return err
	}
	defer st.stop()
	rep.recordProcess(st[0], cfg.procs)
	base := "http://" + st[0].addr

	done := make(chan *readStats, 1)
	go func() {
		done <- closedLoop(base, in.reads, 1, time.Duration(cfg.seconds)*time.Second,
			func(k opKind) bool { return k == opRewrite }, nil)
	}()
	is := ingestLoop(base, in.batches, nil)
	rs := <-done
	reportFresh(rep, rs, is)

	cursor, err := foldCursor(base, is.ackedRecords, 30*time.Second)
	if err != nil {
		return err
	}
	rep.check("fresh: every scheduled batch acked", is.failed == 0 && is.acked == len(in.batches),
		fmt.Sprintf("%d of %d batches acked", is.acked, len(in.batches)))
	rep.check("fresh: every acked probe visible within the deadline", is.invisible == 0,
		fmt.Sprintf("%d of %d acked probes not visible after %v", is.invisible, is.acked, visibleDeadline))
	rep.check("fresh: ingestd fold_cursor equals records acked", cursor == is.ackedRecords,
		fmt.Sprintf("fold_cursor %d, acked %d", cursor, is.ackedRecords))
	return nil
}

// reportFresh sets the fresh workload's metrics and phases.
func reportFresh(rep *report, rs *readStats, is *ingestStats) {
	rps := rs.secondRate()
	rep.set("read_rps", rps, "req/s")
	rw := summarize(rs.lat[opRewrite], 99)
	rep.setDist("rewrite", rw, "us")
	ack := summarize(is.ackMs, 90)
	vis := summarize(is.visibleMs, 90)
	rep.setDist("ingest_ack", ack, "ms")
	rep.setDist("visible", vis, "ms")
	late := lateness(is.due, is.sent)
	rep.set("schedule_late_p50_ms", summarize(late, 90).P50, "ms") // sorts late
	rep.set("schedule_late_max_ms", late[len(late)-1], "ms")
	rs.record(rep, "read.")
	rep.addPhase(phase{Name: "fresh.ingest_batches", Attempted: is.acked + is.failed, Succeeded: is.acked, Failed: is.failed})
	rep.addPhase(phase{Name: "fresh.probes_visible", Attempted: is.acked, Succeeded: is.acked - is.invisible, Failed: is.invisible})
	rep.addPhase(is.polls)
	rep.gateMs("latency_p50_ms", vis, 1)
	rep.gateMs("aux_latency_p50_ms", rw, 1e-3)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
